//! A DML-style textual topology format.
//!
//! The MicroGrid's virtual resources were *"described ... in standard
//! Domain Modeling Language (DML) and a simple resource description for
//! the processor nodes"* (§4.2.2). This module provides the equivalent for
//! our emulator: a small declarative format that builds a [`Grid`], so
//! experiment configurations can live in text files rather than code.
//!
//! ```text
//! # The paper's QR testbed.
//! cluster UTK {
//!     hosts 4
//!     speed 933e6
//!     cores 2
//!     arch ia32
//!     link 12.5e6 100e-6     # local bandwidth (B/s), latency (s)
//! }
//! cluster UIUC {
//!     hosts 8
//!     speed 450e6
//!     link 160e6 20e-6
//! }
//! connect UTK UIUC 4e6 0.030
//! ```
//!
//! Keys inside a cluster block: `hosts`, `speed`, `cores`, `arch`
//! (`ia32`/`ia64`/anything else), `memory`, `cache`, `link BW LAT`.
//! Top level: `cluster NAME { ... }` and `connect A B BW LAT`.
//!
//! Values must describe a grid that can run: speed and bandwidth are
//! finite and positive, cores at least one, latency finite and not
//! negative. Anything else is a [`DmlError::Syntax`] on its line — a zero
//! speed or bandwidth would leave work there unfinished forever, and a
//! negative latency would run the clock backward.

use crate::topology::{Arch, Grid, GridBuilder, HostSpec};

/// Parse errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlError {
    /// Malformed syntax.
    Syntax {
        /// 1-based source line of the offending token.
        line: usize,
        /// What was expected or what went wrong.
        message: String,
    },
    /// A `connect` referenced an unknown cluster.
    UnknownCluster {
        /// 1-based source line of the `connect` statement.
        line: usize,
        /// The cluster name that did not resolve.
        name: String,
    },
    /// The resulting topology failed validation.
    Topology(String),
}

impl std::fmt::Display for DmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmlError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            DmlError::UnknownCluster { line, name } => {
                write!(f, "line {line}: unknown cluster {name:?}")
            }
            DmlError::Topology(m) => write!(f, "topology: {m}"),
        }
    }
}

impl std::error::Error for DmlError {}

fn syntax(line: usize, message: impl Into<String>) -> DmlError {
    DmlError::Syntax {
        line,
        message: message.into(),
    }
}

fn parse_f64(line: usize, tok: &str, what: &str) -> Result<f64, DmlError> {
    tok.parse::<f64>()
        .map_err(|_| syntax(line, format!("bad {what} {tok:?}")))
}

/// A speed or bandwidth: finite and strictly positive.
fn parse_rate(line: usize, tok: &str, what: &str) -> Result<f64, DmlError> {
    let v = parse_f64(line, tok, what)?;
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(syntax(
            line,
            format!("{what} must be finite and positive, got {tok:?}"),
        ))
    }
}

/// A latency: finite and not negative.
fn parse_latency(line: usize, tok: &str) -> Result<f64, DmlError> {
    let v = parse_f64(line, tok, "latency")?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(syntax(
            line,
            format!("latency must be finite and not negative, got {tok:?}"),
        ))
    }
}

/// Parse a DML-style description into a built [`Grid`].
pub fn parse_dml(src: &str) -> Result<Grid, DmlError> {
    let mut b = GridBuilder::new();
    let mut names: Vec<String> = Vec::new();
    let mut ids = Vec::new();

    struct Block {
        name: String,
        start_line: usize,
        hosts: Option<usize>,
        spec: HostSpec,
        link: Option<(f64, f64)>,
    }

    let mut block: Option<Block> = None;
    for (i, raw) in src.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match (&mut block, toks[0]) {
            (None, "cluster") => {
                if toks.len() < 3 || toks[2] != "{" {
                    return Err(syntax(line_no, "expected `cluster NAME {`"));
                }
                block = Some(Block {
                    name: toks[1].to_string(),
                    start_line: line_no,
                    hosts: None,
                    spec: HostSpec::with_speed(1e9),
                    link: None,
                });
            }
            (None, "connect") => {
                if toks.len() != 5 {
                    return Err(syntax(line_no, "expected `connect A B BW LAT`"));
                }
                let find = |n: &str| -> Result<usize, DmlError> {
                    names
                        .iter()
                        .position(|x| x == n)
                        .ok_or(DmlError::UnknownCluster {
                            line: line_no,
                            name: n.to_string(),
                        })
                };
                let a = find(toks[1])?;
                let c = find(toks[2])?;
                let bw = parse_rate(line_no, toks[3], "bandwidth")?;
                let lat = parse_latency(line_no, toks[4])?;
                b.connect(ids[a], ids[c], bw, lat);
            }
            (None, other) => {
                return Err(syntax(line_no, format!("unexpected {other:?}")));
            }
            (Some(_blk), "}") => {
                let blk = block.take().expect("inside a block");
                let id = b.cluster(&blk.name);
                if let Some((bw, lat)) = blk.link {
                    b.local_link(id, bw, lat);
                }
                let n = blk.hosts.ok_or(syntax(
                    blk.start_line,
                    format!("cluster {:?} missing `hosts N`", blk.name),
                ))?;
                b.add_hosts(id, n, &blk.spec);
                names.push(blk.name);
                ids.push(id);
            }
            (Some(blk), key) => match key {
                "hosts" if toks.len() == 2 => {
                    blk.hosts = Some(
                        toks[1]
                            .parse()
                            .map_err(|_| syntax(line_no, "bad host count"))?,
                    );
                }
                "speed" if toks.len() == 2 => {
                    blk.spec.speed = parse_rate(line_no, toks[1], "speed")?;
                }
                "cores" if toks.len() == 2 => {
                    blk.spec.cores = match toks[1].parse() {
                        Ok(0) => return Err(syntax(line_no, "cores must be at least 1")),
                        Ok(n) => n,
                        Err(_) => return Err(syntax(line_no, "bad core count")),
                    };
                }
                "arch" if toks.len() == 2 => {
                    blk.spec.arch = match toks[1] {
                        "ia32" => Arch::Ia32,
                        "ia64" => Arch::Ia64,
                        other => Arch::Other(other.to_string()),
                    };
                }
                "memory" if toks.len() == 2 => {
                    blk.spec.memory = parse_f64(line_no, toks[1], "memory")? as u64;
                }
                "cache" if toks.len() == 2 => {
                    blk.spec.cache_bytes = parse_f64(line_no, toks[1], "cache")? as u64;
                }
                "link" if toks.len() == 3 => {
                    blk.link = Some((
                        parse_rate(line_no, toks[1], "bandwidth")?,
                        parse_latency(line_no, toks[2])?,
                    ));
                }
                other => {
                    return Err(syntax(line_no, format!("unknown key {other:?}")));
                }
            },
        }
    }
    if let Some(blk) = block {
        return Err(syntax(blk.start_line, "unterminated cluster block"));
    }
    b.build().map_err(|e| DmlError::Topology(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const QR_TESTBED: &str = r#"
# The paper's QR testbed.
cluster UTK {
    hosts 4
    speed 933e6
    cores 2
    arch ia32
    link 12.5e6 100e-6
}
cluster UIUC {
    hosts 8
    speed 450e6
    link 160e6 20e-6
}
connect UTK UIUC 4e6 0.030
"#;

    #[test]
    fn parses_the_qr_testbed() {
        let g = parse_dml(QR_TESTBED).unwrap();
        assert_eq!(g.hosts_of("UTK").len(), 4);
        assert_eq!(g.hosts_of("UIUC").len(), 8);
        let utk0 = g.hosts_of("UTK")[0];
        assert_eq!(g.host(utk0).speed, 933e6);
        assert_eq!(g.host(utk0).cores, 2);
        assert_eq!(g.host(utk0).arch, Arch::Ia32);
        let uiuc0 = g.hosts_of("UIUC")[0];
        let r = g.route(utk0, uiuc0);
        assert!((r.latency - (100e-6 + 0.030 + 20e-6)).abs() < 1e-9);
    }

    #[test]
    fn matches_the_builder_equivalent() {
        let g = parse_dml(QR_TESTBED).unwrap();
        let b = crate::topology::macrogrid_qr();
        assert_eq!(g.hosts().len(), b.hosts().len());
        for (x, y) in g.hosts().iter().zip(b.hosts()) {
            assert_eq!(x.speed, y.speed);
            assert_eq!(x.cores, y.cores);
        }
    }

    #[test]
    fn arch_variants_and_extras() {
        let g =
            parse_dml("cluster A {\n hosts 1\n arch ia64\n memory 2e9\n cache 3e6\n}\n").unwrap();
        let h = g.host(g.hosts_of("A")[0]);
        assert_eq!(h.arch, Arch::Ia64);
        assert_eq!(h.memory, 2_000_000_000);
        assert_eq!(h.cache_bytes, 3_000_000);
        let g2 = parse_dml("cluster B {\n hosts 1\n arch sparc\n}\n").unwrap();
        assert_eq!(
            g2.host(g2.hosts_of("B")[0]).arch,
            Arch::Other("sparc".to_string())
        );
    }

    #[test]
    fn error_unknown_cluster_in_connect() {
        let err = parse_dml("cluster A {\n hosts 1\n}\nconnect A NOPE 1e6 0.01\n").unwrap_err();
        assert!(matches!(err, DmlError::UnknownCluster { name, .. } if name == "NOPE"));
    }

    #[test]
    fn error_unknown_key() {
        let err = parse_dml("cluster A {\n wibble 3\n}\n").unwrap_err();
        assert!(matches!(err, DmlError::Syntax { line: 2, .. }), "{err}");
    }

    #[test]
    fn error_missing_hosts() {
        let err = parse_dml("cluster A {\n speed 1e9\n}\n").unwrap_err();
        assert!(matches!(err, DmlError::Syntax { .. }));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn error_unterminated_block() {
        let err = parse_dml("cluster A {\n hosts 1\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn error_disconnected_topology() {
        let err = parse_dml("cluster A {\n hosts 1\n}\ncluster B {\n hosts 1\n}\n").unwrap_err();
        assert!(matches!(err, DmlError::Topology(_)));
    }

    /// Parse `src` and require a syntax error on `line` naming `what`.
    fn rejects(src: &str, line: usize, what: &str) {
        match parse_dml(src) {
            Err(DmlError::Syntax { line: l, message }) => {
                assert_eq!(l, line, "{src:?}: {message}");
                assert!(message.contains(what), "{src:?}: {message}");
            }
            other => panic!("{src:?} must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn error_zero_speed() {
        rejects("cluster A {\n hosts 1\n speed 0\n}\n", 3, "speed");
    }

    #[test]
    fn error_negative_speed() {
        rejects("cluster A {\n hosts 1\n speed -5\n}\n", 3, "speed");
    }

    #[test]
    fn error_nan_speed() {
        rejects("cluster A {\n hosts 1\n speed NaN\n}\n", 3, "speed");
    }

    #[test]
    fn error_zero_cores() {
        rejects("cluster A {\n hosts 1\n cores 0\n}\n", 3, "cores");
    }

    #[test]
    fn error_zero_link_bandwidth() {
        rejects("cluster A {\n hosts 2\n link 0 1e-4\n}\n", 3, "bandwidth");
    }

    #[test]
    fn error_nan_link_bandwidth() {
        rejects("cluster A {\n hosts 2\n link NaN 1e-4\n}\n", 3, "bandwidth");
    }

    #[test]
    fn error_negative_link_latency() {
        rejects("cluster A {\n hosts 2\n link 1e9 -1\n}\n", 3, "latency");
    }

    #[test]
    fn error_zero_connect_bandwidth() {
        rejects(
            "cluster A {\n hosts 1\n}\ncluster B {\n hosts 1\n}\nconnect A B 0 0.01\n",
            7,
            "bandwidth",
        );
    }

    #[test]
    fn error_infinite_connect_latency() {
        rejects(
            "cluster A {\n hosts 1\n}\ncluster B {\n hosts 1\n}\nconnect A B 1e6 inf\n",
            7,
            "latency",
        );
    }

    #[test]
    fn zero_latency_is_accepted() {
        let g = parse_dml("cluster A {\n hosts 2\n link 1e9 0\n}\n").unwrap();
        let h = g.hosts_of("A");
        assert_eq!(g.route(h[0], h[1]).latency, 0.0);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_dml("\n# hi\ncluster A { # open\n hosts 2 # two\n}\n").unwrap();
        assert_eq!(g.hosts_of("A").len(), 2);
    }
}
