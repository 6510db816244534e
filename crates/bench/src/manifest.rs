//! Crash-safe campaign manifest: `results/MANIFEST.json`.
//!
//! `repro all --out D` records every completed experiment here — its
//! output files and their content hashes — updating the manifest
//! atomically (write to a temp file, then rename) after *each*
//! experiment finishes. A later `repro all --resume --out D` skips any
//! experiment whose manifest entry still verifies against the files on
//! disk, so a campaign killed at experiment 23 of 40 restarts at 23,
//! and the resumed run's `results/` is byte-identical to an
//! uninterrupted one (experiments are independent and deterministic).
//!
//! The file is JSON read and written through `bounce_harness::json`:
//! one object keyed by experiment id, each entry listing `{path, hash}`
//! records. Hashes are 64-bit FNV-1a over the file bytes — collision
//! resistance is irrelevant here; the hash only needs to catch
//! truncated or hand-edited outputs.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use bounce_harness::json::{self, Json};

/// Manifest file name inside the output directory.
pub const FILE_NAME: &str = "MANIFEST.json";

/// One output file of a completed experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecord {
    /// File name relative to the output directory.
    pub path: String,
    /// `fnv1a:<16 hex digits>` over the file contents.
    pub hash: String,
}

/// All completed experiments, keyed by experiment id. `BTreeMap` keeps
/// the serialised form stable regardless of completion order, so a
/// parallel campaign and a serial one write identical manifests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// The campaign configuration this manifest belongs to (quick flag,
    /// protocol override). Resuming under a different configuration
    /// must not reuse these entries.
    pub config: String,
    /// Completed experiments and their output files.
    pub entries: BTreeMap<String, Vec<FileRecord>>,
}

/// 64-bit FNV-1a of `bytes`, rendered as `fnv1a:<hex>`.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

impl Manifest {
    /// A fresh manifest for a campaign configuration.
    pub fn new(config: &str) -> Self {
        Manifest {
            config: config.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// Serialise to the JSON [`Manifest::from_json`] reads back.
    pub fn to_json(&self) -> String {
        let record = |f: &FileRecord| {
            let fields = [("path", &f.path), ("hash", &f.hash)];
            Json::obj(fields.map(|(k, v)| (k, Json::Str(v.clone()))))
        };
        let files = |files: &Vec<FileRecord>| Json::Arr(files.iter().map(record).collect());
        let experiments = Json::obj(self.entries.iter().map(|(id, f)| (id.as_str(), files(f))));
        let config = Json::Str(self.config.clone());
        let doc = Json::obj([("config", config), ("experiments", experiments)]);
        json::render(&doc, 2)
    }

    /// Parse a manifest previously written by [`Manifest::to_json`].
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let field = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).map(str::to_string);
        let config = field(&doc, "config").ok_or("manifest missing \"config\"")?;
        let Some(Json::Obj(experiments)) = doc.get("experiments") else {
            return Err("manifest missing \"experiments\"".into());
        };
        let mut entries = BTreeMap::new();
        for (id, files) in experiments {
            let bad = || format!("entry '{id}' is not a list of {{path, hash}} records");
            let Json::Arr(files) = files else {
                return Err(bad());
            };
            let mut records = Vec::new();
            for f in files {
                let (path, hash) = field(f, "path").zip(field(f, "hash")).ok_or_else(bad)?;
                records.push(FileRecord { path, hash });
            }
            entries.insert(id.clone(), records);
        }
        Ok(Manifest { config, entries })
    }

    /// Load the manifest from `dir`, if one exists and parses. A stale
    /// temp file from an interrupted save is deleted on the way.
    pub fn load(dir: &Path) -> Result<Option<Manifest>, String> {
        let _ = fs::remove_file(dir.join(format!("{FILE_NAME}.tmp")));
        let path = dir.join(FILE_NAME);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        Manifest::from_json(&text)
            .map(Some)
            .map_err(|e| format!("parsing {}: {e}", path.display()))
    }

    /// Atomically write the manifest into `dir` (temp file + rename), so
    /// a kill mid-save leaves either the old manifest or the new one,
    /// never a torn file.
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let tmp = dir.join(format!("{FILE_NAME}.tmp"));
        let dst = dir.join(FILE_NAME);
        fs::write(&tmp, self.to_json()).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &dst)
            .map_err(|e| format!("renaming {} to {}: {e}", tmp.display(), dst.display()))
    }

    /// Whether experiment `id` completed earlier *and* its recorded
    /// outputs are still intact on disk (every file present with a
    /// matching hash).
    pub fn verified_complete(&self, dir: &Path, id: &str) -> bool {
        let Some(files) = self.entries.get(id) else {
            return false;
        };
        !files.is_empty()
            && files.iter().all(|f| {
                fs::read(dir.join(&f.path))
                    .map(|bytes| fnv1a_hex(&bytes) == f.hash)
                    .unwrap_or(false)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new("quick=false,protocol=native,plots=true");
        m.entries.insert(
            "fig1-e5".into(),
            vec![
                FileRecord {
                    path: "fig1-e5.tsv".into(),
                    hash: fnv1a_hex(b"data"),
                },
                FileRecord {
                    path: "fig1-e5.gp".into(),
                    hash: fnv1a_hex(b"plot"),
                },
            ],
        );
        m.entries.insert(
            "table1".into(),
            vec![FileRecord {
                path: "table1.tsv".into(),
                hash: fnv1a_hex(b"t1"),
            }],
        );
        m
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let m = sample();
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        // Stable serialisation: BTreeMap ordering, not insertion order.
        assert_eq!(parsed.to_json(), m.to_json());
        // The on-disk layout, including the empty-manifest form.
        let t1 = fnv1a_hex(b"t1");
        let mut one = Manifest::new("cfg");
        one.entries
            .insert("table1".into(), sample().entries["table1"].clone());
        assert_eq!(
            one.to_json(),
            format!(
                "{{\n  \"config\": \"cfg\",\n  \"experiments\": {{\n    \"table1\": \
                 [{{\"path\": \"table1.tsv\", \"hash\": \"{t1}\"}}]\n  }}\n}}\n"
            )
        );
        assert_eq!(
            Manifest::new("cfg").to_json(),
            "{\n  \"config\": \"cfg\",\n  \"experiments\": {\n  }\n}\n"
        );
    }

    #[test]
    fn escaping_survives_roundtrip() {
        let mut m = Manifest::new("cfg with \"quotes\" and \\slash\\ and\nnewline");
        m.entries.insert(
            "id \"x\"".into(),
            vec![FileRecord {
                path: "weird \u{1} name — dash".into(),
                hash: "fnv1a:0".into(),
            }],
        );
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn save_load_roundtrip_and_stale_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("manifest-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let m = sample();
        m.save(&dir).unwrap();
        // Simulate a kill mid-save: a stale tmp file lying around.
        fs::write(dir.join(format!("{FILE_NAME}.tmp")), "{torn").unwrap();
        let loaded = Manifest::load(&dir).unwrap().unwrap();
        assert_eq!(loaded, m);
        assert!(!dir.join(format!("{FILE_NAME}.tmp")).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_is_none() {
        let dir = std::env::temp_dir().join(format!("manifest-miss-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(Manifest::load(&dir).unwrap(), None);
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let err = Manifest::from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn load_corrupt_manifest_is_error() {
        let dir = std::env::temp_dir().join(format!("manifest-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(FILE_NAME), "{\"config\": \"x\"").unwrap();
        assert!(Manifest::load(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verified_complete_checks_presence_and_hash() {
        let dir = std::env::temp_dir().join(format!("manifest-verify-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("a.tsv"), b"alpha").unwrap();
        let mut m = Manifest::new("cfg");
        m.entries.insert(
            "a".into(),
            vec![FileRecord {
                path: "a.tsv".into(),
                hash: fnv1a_hex(b"alpha"),
            }],
        );
        m.entries.insert(
            "gone".into(),
            vec![FileRecord {
                path: "gone.tsv".into(),
                hash: fnv1a_hex(b"x"),
            }],
        );
        m.entries.insert("empty".into(), Vec::new());
        assert!(m.verified_complete(&dir, "a"));
        assert!(!m.verified_complete(&dir, "gone"), "missing file");
        assert!(!m.verified_complete(&dir, "empty"), "no recorded files");
        assert!(!m.verified_complete(&dir, "never-ran"));
        // Vandalised output: hash mismatch invalidates the entry.
        fs::write(dir.join("a.tsv"), b"tampered").unwrap();
        assert!(!m.verified_complete(&dir, "a"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_known_values() {
        // FNV-1a test vectors (64-bit).
        assert_eq!(fnv1a_hex(b""), "fnv1a:cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "fnv1a:af63dc4c8601ec8c");
        assert_ne!(fnv1a_hex(b"ab"), fnv1a_hex(b"ba"), "order sensitive");
    }
}
