//! Trace-driven kernels: build a [`VecKernel`] from a simple text format,
//! so externally captured memory traces (e.g. from an instrumented CUDA
//! run) can be replayed through the simulator.
//!
//! # Format
//!
//! Line-oriented; `#` starts a comment. A trace declares one kernel and
//! then one section per warp:
//!
//! ```text
//! kernel mykernel ctas=2 warps_per_cta=1
//! cta 0 warp 0
//!   ld 0x100 0x180 0x200   # one load instruction, three lane addresses
//!   st 0x100
//!   at 0x300                # atomic RMW
//!   compute 12
//!   fence                   # full fence; also: fence.rel / fence.acq
//!   barrier
//! cta 1 warp 0
//!   ld 0x100
//! ```
//!
//! Addresses are hex (`0x…`) or decimal byte addresses. Warps not given a
//! section run empty programs.
//!
//! # Examples
//!
//! ```
//! use gtsc_workloads::trace::parse_trace;
//! use gtsc_gpu::Kernel;
//!
//! let k = parse_trace("kernel t ctas=1 warps_per_cta=1\ncta 0 warp 0\nld 0x80\n")?;
//! assert_eq!(k.name(), "t");
//! assert_eq!(k.n_ctas(), 1);
//! # Ok::<(), gtsc_workloads::trace::TraceError>(())
//! ```

use std::fmt;

use gtsc_gpu::{Lanes, VecKernel, WarpOp, WarpProgram};
use gtsc_types::Addr;

/// Why a trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    line: usize,
    message: String,
}

impl TraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        TraceError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

fn parse_addr(tok: &str, line: usize) -> Result<Addr, TraceError> {
    let v = if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    v.map(Addr)
        .map_err(|_| TraceError::new(line, format!("bad address `{tok}`")))
}

fn parse_addr_list(toks: &[&str], line: usize) -> Result<Lanes, TraceError> {
    if toks.is_empty() {
        return Err(TraceError::new(
            line,
            "memory op needs at least one address",
        ));
    }
    toks.iter().map(|t| parse_addr(t, line)).collect()
}

/// Parses the trace text into a kernel.
///
/// # Errors
///
/// Returns a [`TraceError`] naming the offending line for any syntax
/// problem, out-of-range CTA/warp index, or missing `kernel` header.
pub fn parse_trace(text: &str) -> Result<VecKernel, TraceError> {
    let mut name = None;
    let mut n_ctas = 0usize;
    let mut warps_per_cta = 0usize;
    let mut programs: Vec<Vec<Vec<WarpOp>>> = Vec::new();
    let mut current: Option<(usize, usize)> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "kernel" => {
                if toks.len() != 4 {
                    return Err(TraceError::new(
                        line_no,
                        "expected: kernel <name> ctas=<n> warps_per_cta=<m>",
                    ));
                }
                let ctas = toks[2]
                    .strip_prefix("ctas=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| TraceError::new(line_no, "bad ctas=<n>"))?;
                let wpc = toks[3]
                    .strip_prefix("warps_per_cta=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| TraceError::new(line_no, "bad warps_per_cta=<m>"))?;
                if ctas == 0 || wpc == 0 {
                    return Err(TraceError::new(
                        line_no,
                        "ctas and warps_per_cta must be nonzero",
                    ));
                }
                name = Some(toks[1].to_owned());
                n_ctas = ctas;
                warps_per_cta = wpc;
                programs = vec![vec![Vec::new(); wpc]; ctas];
            }
            "cta" => {
                if name.is_none() {
                    return Err(TraceError::new(line_no, "cta before kernel header"));
                }
                if toks.len() != 4 || toks[2] != "warp" {
                    return Err(TraceError::new(line_no, "expected: cta <i> warp <j>"));
                }
                let c: usize = toks[1]
                    .parse()
                    .map_err(|_| TraceError::new(line_no, "bad cta index"))?;
                let w: usize = toks[3]
                    .parse()
                    .map_err(|_| TraceError::new(line_no, "bad warp index"))?;
                if c >= n_ctas || w >= warps_per_cta {
                    return Err(TraceError::new(
                        line_no,
                        format!("cta {c} warp {w} out of range"),
                    ));
                }
                current = Some((c, w));
            }
            op @ ("ld" | "st" | "at" | "compute" | "fence" | "fence.rel" | "fence.acq"
            | "barrier") => {
                let Some((c, w)) = current else {
                    return Err(TraceError::new(
                        line_no,
                        "instruction before any `cta ... warp ...`",
                    ));
                };
                let parsed = match op {
                    "ld" => WarpOp::Load(parse_addr_list(&toks[1..], line_no)?),
                    "st" => WarpOp::Store(parse_addr_list(&toks[1..], line_no)?),
                    "at" => WarpOp::Atomic(parse_addr_list(&toks[1..], line_no)?),
                    "compute" => {
                        let c: u32 = toks.get(1).and_then(|v| v.parse().ok()).ok_or_else(|| {
                            TraceError::new(line_no, "compute needs a cycle count")
                        })?;
                        WarpOp::Compute(c)
                    }
                    "fence" => WarpOp::Fence,
                    "fence.rel" => WarpOp::ReleaseFence,
                    "fence.acq" => WarpOp::AcquireFence,
                    _ => WarpOp::Barrier,
                };
                programs[c][w].push(parsed);
            }
            other => {
                return Err(TraceError::new(
                    line_no,
                    format!("unknown directive `{other}`"),
                ))
            }
        }
    }

    let Some(name) = name else {
        return Err(TraceError::new(0, "missing `kernel` header"));
    };
    let ctas = programs
        .into_iter()
        .map(|cta| cta.into_iter().map(WarpProgram).collect())
        .collect();
    Ok(VecKernel::new(&name, warps_per_cta, ctas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtsc_gpu::Kernel;
    use gtsc_types::CtaId;

    const GOOD: &str = "\
# producer/consumer
kernel pc ctas=2 warps_per_cta=2
cta 0 warp 0
  st 0x0
  fence
  at 0x80
cta 1 warp 1
  ld 0x80 0x100   # divergent
  compute 7
  barrier
";

    #[test]
    fn parses_full_trace() {
        let k = parse_trace(GOOD).expect("parses");
        assert_eq!(k.name(), "pc");
        assert_eq!(k.n_ctas(), 2);
        assert_eq!(k.warps_per_cta(), 2);
        let p = k.program(CtaId(0), 0);
        assert_eq!(
            p.0,
            vec![
                WarpOp::Store(vec![Addr(0)].into()),
                WarpOp::Fence,
                WarpOp::Atomic(vec![Addr(0x80)].into()),
            ]
        );
        let p = k.program(CtaId(1), 1);
        assert_eq!(p.0.len(), 3);
        assert_eq!(p.0[0], WarpOp::Load(vec![Addr(0x80), Addr(0x100)].into()));
        // Unmentioned warps are empty.
        assert!(k.program(CtaId(0), 1).is_empty());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_trace("kernel t ctas=1 warps_per_cta=1\ncta 0 warp 0\nld\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("at least one address"));

        let e = parse_trace("ld 0x0\n").unwrap_err();
        assert!(e.to_string().contains("before any"));

        let e = parse_trace("kernel t ctas=1 warps_per_cta=1\ncta 5 warp 0\n").unwrap_err();
        assert!(e.to_string().contains("out of range"));

        let e = parse_trace("").unwrap_err();
        assert!(e.to_string().contains("missing `kernel`"));

        let e =
            parse_trace("kernel t ctas=1 warps_per_cta=1\ncta 0 warp 0\nfrobnicate\n").unwrap_err();
        assert!(e.to_string().contains("unknown directive"));
    }

    #[test]
    fn fence_variants_parse() {
        let k = parse_trace(
            "kernel t ctas=1 warps_per_cta=1\ncta 0 warp 0\nst 0x0\nfence.rel\nld 0x80\nfence.acq\n",
        )
        .unwrap();
        let p = k.program(CtaId(0), 0);
        assert_eq!(p.0[1], WarpOp::ReleaseFence);
        assert_eq!(p.0[3], WarpOp::AcquireFence);
    }

    #[test]
    fn hex_and_decimal_addresses() {
        let k =
            parse_trace("kernel t ctas=1 warps_per_cta=1\ncta 0 warp 0\nld 0x80 128\n").unwrap();
        let p = k.program(CtaId(0), 0);
        assert_eq!(p.0[0], WarpOp::Load(vec![Addr(0x80), Addr(128)].into()));
    }

    #[test]
    fn roundtrip_is_stable() {
        // Parsing the same text twice yields identical kernels (the
        // end-to-end simulator run of a traced kernel is covered by the
        // workspace integration tests, which may depend on gtsc-sim).
        let a = parse_trace(GOOD).expect("parses");
        let b = parse_trace(GOOD).expect("parses");
        for c in 0..a.n_ctas() {
            for w in 0..a.warps_per_cta() {
                assert_eq!(a.program(CtaId(c as u32), w), b.program(CtaId(c as u32), w));
            }
        }
    }
}
