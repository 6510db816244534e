//! Integration tests for the `repro` campaign: drive the real binary
//! (via `CARGO_BIN_EXE_repro`). Experiment selection — by id, by
//! `--filter` and by `--machine` — must agree with the registry, and
//! crash-safe resume — interrupt or vandalise a campaign — must make
//! `--resume` reconstruct a byte-identical results directory.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const MANIFEST: &str = "MANIFEST.json";
/// A small but representative slice of the campaign: two global tables
/// plus one per-machine figure (4 experiments total), so runs stay fast.
const FILTER: &str = "table1,table2,fig3";

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("repro-resume-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn run_all(dir: &Path, resume: bool) -> Output {
    let mut c = repro();
    c.args(["all", "--quick", "--filter", FILTER, "--out"])
        .arg(dir);
    if resume {
        c.arg("--resume");
    }
    c.output().expect("spawn repro")
}

/// Every file in `dir` by name → contents.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("read results dir")
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            let bytes = fs::read(e.path()).unwrap();
            (name, bytes)
        })
        .collect()
}

#[test]
fn resume_without_out_is_an_error() {
    let out = repro()
        .args(["all", "--quick", "--resume"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--out"), "stderr should name --out: {err}");
}

#[test]
fn resume_rejects_a_hostile_manifest_without_aborting() {
    let dir = tmp_dir("hostile");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(MANIFEST), "[".repeat(1_000_000)).unwrap();
    let out = run_all(&dir, true);
    assert_eq!(out.status.code(), Some(1), "must exit 1, not abort");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("parsing") && err.contains(MANIFEST) && err.contains("nesting deeper"),
        "stderr should name the manifest and the parse error: {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_rejects_mismatched_configuration() {
    let dir = tmp_dir("config");
    let first = run_all(&dir, false);
    assert!(first.status.success());
    // Same directory, but now asking for full scale: the quick manifest
    // must not be reused.
    let out = repro()
        .args(["all", "--filter", "table1", "--resume", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("quick=true") && err.contains("quick=false"),
        "stderr should show both configurations: {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// The manifest also records the fault-injection configuration: a
/// campaign written on a healthy fabric must not be resumed under
/// `--fabric-faults` (or a different `--retry-policy`) — the cached
/// and fresh tables would disagree silently.
#[test]
fn resume_rejects_mismatched_fault_configuration() {
    let dir = tmp_dir("faults");
    let first = run_all(&dir, false);
    assert!(first.status.success());
    let out = repro()
        .args([
            "all",
            "--quick",
            "--filter",
            "table1",
            "--fabric-faults",
            "moderate",
            "--retry-policy",
            "patient",
            "--resume",
            "--out",
        ])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("fabric=none") && err.contains("fabric=moderate"),
        "stderr should show both fabric configurations: {err}"
    );
    assert!(
        err.contains("retry=backoff") && err.contains("retry=patient"),
        "stderr should show both retry policies: {err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// Vandalised partial state — one output deleted, one tampered with —
/// is detected by the manifest hashes; `--resume` reruns exactly those
/// experiments and the directory ends up byte-identical to an
/// uninterrupted campaign.
#[test]
fn resume_after_partial_damage_is_byte_identical() {
    let fresh = tmp_dir("fresh");
    let damaged = tmp_dir("damaged");

    let fresh_run = run_all(&fresh, false);
    assert!(fresh_run.status.success(), "fresh run failed");
    let reference = snapshot(&fresh);
    assert!(reference.contains_key(MANIFEST));
    assert!(reference.contains_key("fig3-e5.tsv"));

    // Replay the completed campaign into a second directory, then break it.
    fs::create_dir_all(&damaged).unwrap();
    for (name, bytes) in &reference {
        fs::write(damaged.join(name), bytes).unwrap();
    }
    fs::remove_file(damaged.join("fig3-e5.tsv")).unwrap();
    let mut tampered = reference["fig3-knl.tsv"].clone();
    tampered.extend_from_slice(b"# trailing vandalism\n");
    fs::write(damaged.join("fig3-knl.tsv"), tampered).unwrap();

    let resumed = run_all(&damaged, true);
    assert!(resumed.status.success(), "resumed run failed");
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        err.contains("2 already complete"),
        "table1+table2 should be skipped: {err}"
    );
    assert_eq!(snapshot(&damaged), reference, "results differ after resume");
    // stdout replays cached tables from disk, so the two campaigns
    // print the same bytes too.
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&fresh_run.stdout),
        "stdout differs after resume"
    );

    fs::remove_dir_all(&fresh).unwrap();
    fs::remove_dir_all(&damaged).unwrap();
}

/// Kill a campaign mid-flight (SIGKILL as soon as the first experiment
/// commits), then `--resume`: the directory must match an uninterrupted
/// run byte for byte.
#[test]
fn killed_campaign_resumes_byte_identical() {
    let fresh = tmp_dir("kill-ref");
    let killed = tmp_dir("kill");

    assert!(run_all(&fresh, false).status.success());
    let reference = snapshot(&fresh);

    let mut child = repro()
        .args(["all", "--quick", "--jobs", "1", "--filter", FILTER, "--out"])
        .arg(&killed)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn repro");
    // Wait for the first atomic manifest publish, then kill hard. If
    // the campaign finishes before we notice, that's the trivial case
    // and resume becomes a no-op — still a valid check.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    while !killed.join(MANIFEST).exists() && std::time::Instant::now() < deadline {
        if child.try_wait().unwrap().is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();

    let resumed = run_all(&killed, true);
    assert!(resumed.status.success(), "resumed run failed");
    assert_eq!(
        snapshot(&killed),
        reference,
        "killed+resumed campaign differs from uninterrupted run"
    );

    fs::remove_dir_all(&fresh).unwrap();
    fs::remove_dir_all(&killed).unwrap();
}

fn stdout_of(args: &[&str]) -> String {
    let out = repro().args(args).output().expect("spawn repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The registry's experiment ids with the machine suffix stripped,
/// deduplicated, in registry order.
fn registry_base_ids() -> Vec<String> {
    use bounce_harness::experiments::{experiment_specs, ExpCtx, Machine};
    let mut ids: Vec<String> = Vec::new();
    for (id, _) in experiment_specs(ExpCtx::quick()) {
        let base = Machine::ALL
            .iter()
            .find_map(|m| id.strip_suffix(&format!("-{}", m.label())))
            .unwrap_or(&id)
            .to_string();
        if !ids.contains(&base) {
            ids.push(base);
        }
    }
    ids
}

#[test]
fn list_prints_the_registry_base_ids_in_order() {
    let listed: Vec<String> = stdout_of(&["list"]).lines().map(String::from).collect();
    assert_eq!(listed.len(), 22, "2 tables + 20 per-machine experiments");
    assert_eq!(listed.first().map(String::as_str), Some("table1"));
    assert_eq!(listed.last().map(String::as_str), Some("latency-hist"));
    assert_eq!(listed, registry_base_ids());
}

/// A named experiment is the campaign filtered to that id: same tables,
/// same order, same bytes.
#[test]
fn named_experiment_matches_filtered_campaign() {
    for id in ["fig1", "table1", "e15"] {
        assert_eq!(
            stdout_of(&[id, "--quick", "--exact"]),
            stdout_of(&["all", "--quick", "--exact", "--filter", id]),
            "repro {id} differs from repro all --filter {id}"
        );
    }
    assert_eq!(
        stdout_of(&["fig1", "--quick", "--exact", "--machine", "knl"]),
        stdout_of(&["all", "--quick", "--exact", "--filter", "fig1-knl"]),
    );
}

#[test]
fn unknown_experiment_lists_the_known_ids() {
    let out = repro().arg("nosuch").output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nosuch"), "stderr should name the id: {err}");
    for id in registry_base_ids() {
        assert!(err.contains(&id), "stderr should list {id}: {err}");
    }
}

/// `--machine` restricts the whole campaign, not only a named
/// experiment: the machine-independent tables plus that machine's ids.
#[test]
fn machine_flag_restricts_the_campaign() {
    let dir = tmp_dir("machine");
    let out = repro()
        .args(["all", "--quick", "--exact", "--machine", "knl", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut tables: Vec<String> = snapshot(&dir)
        .into_keys()
        .filter_map(|name| name.strip_suffix(".tsv").map(String::from))
        .collect();
    tables.sort();
    let mut expected: Vec<String> = registry_base_ids()
        .into_iter()
        .map(|id| {
            if id.starts_with("table") {
                id
            } else {
                format!("{id}-knl")
            }
        })
        .collect();
    expected.sort();
    assert_eq!(tables.len(), 22);
    assert_eq!(tables, expected);
    fs::remove_dir_all(&dir).unwrap();
}
