//! LEB128 varints and zigzag deltas: the byte coding shared by the
//! checker's load logs (DESIGN.md §15.6) and the kernels' coded programs
//! (§15.5). Every function is `#[inline]`: the SM decodes a program on
//! its issue path, across the crate boundary.

/// Appends `v` as an LEB128 varint: seven bits a byte, low bits first,
/// the top bit set on every byte but the last.
#[inline]
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint that starts at `bytes[*at]`, leaving `*at` past it.
///
/// # Panics
///
/// If `bytes` ends inside the varint: bytes written by [`put`] never do.
#[inline]
#[must_use]
pub fn get(bytes: &[u8], at: &mut usize) -> u64 {
    let mut v = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// A wrapped difference as a small unsigned number either way round:
/// 0, −1, 1, −2 … become 0, 1, 2, 3 …, so a short step back costs what a
/// short step forward does.
#[inline]
#[must_use]
pub fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// The difference [`zigzag`] coded.
#[inline]
#[must_use]
pub fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes_round_trip() {
        for v in [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::MAX >> 1, u64::MAX] {
            let mut out = Vec::new();
            put(&mut out, v);
            put(&mut out, zigzag(v));
            let mut at = 0;
            assert_eq!(get(&out, &mut at), v);
            assert_eq!(unzigzag(get(&out, &mut at)), v);
            assert_eq!(at, out.len());
        }
        assert_eq!(zigzag(u64::MAX), 1, "-1 is one byte");
        let mut out = Vec::new();
        put(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }
}
