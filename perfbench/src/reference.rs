//! Exact reference counters: `perfbench/reference.txt`.
//!
//! One `key value` pair per line, `#` starts a comment. Values are
//! unsigned integers: simulator and verifier counters, table row counts
//! and FNV-1a digests of table headers and per-thread counters. Every
//! counter here is deterministic, so a run compares by equality.

use std::collections::BTreeMap;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The parsed reference file, or one being recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    counters: BTreeMap<String, u64>,
    /// Record every gated counter instead of comparing it.
    recording: bool,
}

impl Reference {
    /// Parse the `key value` format, naming the first bad line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(k), Some(v), None) = (parts.next(), parts.next(), parts.next()) else {
                return Err(format!("line {}: expected `key value`", i + 1));
            };
            let v: u64 = v
                .parse()
                .map_err(|e| format!("line {}: value of {k}: {e}", i + 1))?;
            if map.insert(k.to_string(), v).is_some() {
                return Err(format!("line {}: duplicate key {k}", i + 1));
            }
        }
        Ok(Reference {
            counters: map,
            recording: false,
        })
    }

    /// An empty reference that records every gated counter.
    pub fn recorder() -> Self {
        Reference {
            counters: BTreeMap::new(),
            recording: true,
        }
    }

    /// Render in the file format, sorted by key.
    pub fn render(&self) -> String {
        self.counters
            .iter()
            .map(|(k, v)| format!("{k} {v}\n"))
            .collect()
    }

    /// Record (or overwrite) one counter.
    pub fn insert(&mut self, key: String, value: u64) {
        self.counters.insert(key, value);
    }

    /// Compare `actual` counters against the reference, naming every
    /// mismatch and every counter the reference lacks. While recording,
    /// store them instead.
    pub fn gate(&mut self, actual: &[(String, u64)]) -> Result<(), String> {
        if self.recording {
            for (k, v) in actual {
                self.insert(k.clone(), *v);
            }
            return Ok(());
        }
        let bad: Vec<String> = actual
            .iter()
            .filter_map(|(k, v)| match self.counters.get(k) {
                Some(r) if r == v => None,
                Some(r) => Some(format!("{k} = {v}, reference {r}")),
                None => Some(format!("{k} = {v}, no reference")),
            })
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trip() {
        let r = Reference::parse("# header\nb 2\na 1  # trailing\n\n").unwrap();
        assert_eq!(r.render(), "a 1\nb 2\n");
        assert_eq!(Reference::parse(&r.render()).unwrap(), r);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(Reference::parse("a").is_err());
        assert!(Reference::parse("a 1 2").is_err());
        assert!(Reference::parse("a -1").is_err());
        assert!(Reference::parse("a 1\na 2").is_err());
    }

    #[test]
    fn check_flags_a_perturbed_counter() {
        let mut r = Reference::parse("p.events 100\np.threads_fnv 7\n").unwrap();
        let good = vec![
            ("p.events".to_string(), 100),
            ("p.threads_fnv".to_string(), 7),
        ];
        assert!(r.gate(&good).is_ok());
        let mut bad = good.clone();
        bad[1].1 = 8;
        let e = r.gate(&bad).unwrap_err();
        assert!(e.contains("p.threads_fnv = 8, reference 7"), "{e}");
        assert!(r
            .gate(&[("p.other".to_string(), 1)])
            .unwrap_err()
            .contains("no reference"));
    }

    #[test]
    fn recording_stores_instead_of_comparing() {
        let mut r = Reference::recorder();
        r.gate(&[("a".to_string(), 3)]).unwrap();
        assert_eq!(r.render(), "a 3\n");
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
