//! Integration tests for the `astra-sim` CLI binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_astra-sim"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn collective_command_reports_cycles() {
    let (ok, stdout, _) = run(&[
        "collective",
        "--topology",
        "2x2x2",
        "--op",
        "all-reduce",
        "--bytes",
        "65536",
    ]);
    assert!(ok);
    assert!(stdout.contains("cycles"), "{stdout}");
    assert!(stdout.contains("2x2x2 torus"));
}

#[test]
fn collective_json_output_parses() {
    let (ok, stdout, _) = run(&[
        "collective",
        "--topology",
        "1x8@7",
        "--op",
        "all-to-all",
        "--bytes",
        "65536",
        "--json",
    ]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert!(v["duration"].as_u64().unwrap() > 0);
}

#[test]
fn enhanced_flag_changes_result() {
    let base = run(&[
        "collective", "--topology", "4x4x4", "--op", "all-reduce", "--bytes", "4194304",
    ]);
    let enh = run(&[
        "collective", "--topology", "4x4x4", "--op", "all-reduce", "--bytes", "4194304",
        "--enhanced",
    ]);
    assert!(base.0 && enh.0);
    assert_ne!(base.1, enh.1, "enhanced algorithm must change the outcome");
}

#[test]
fn train_model_command() {
    let (ok, stdout, _) = run(&[
        "train", "--topology", "2x2x1", "--model", "tiny_mlp", "--passes", "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("exposed ratio"), "{stdout}");
}

#[test]
fn train_workload_file_command() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/custom_mlp.txt");
    let (ok, stdout, _) = run(&["train", "--topology", "2x2x2", "--workload", path]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fc4"));
}

#[test]
fn export_roundtrips_through_train() {
    let dir = std::env::temp_dir().join("astra_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("dlrm.txt");
    let (ok, _, stderr) = run(&[
        "export",
        "--model",
        "dlrm",
        "--out",
        file.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = run(&[
        "train",
        "--topology",
        "1x4@2",
        "--workload",
        file.to_str().unwrap(),
        "--passes",
        "1",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("embeddings"));
}

#[test]
fn sweep_command_writes_bench_json_and_hits_cache() {
    let dir = std::env::temp_dir().join(format!("astra_cli_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache = dir.join("cache");
    let sweep_args = [
        "sweep",
        "--topology",
        "1x4x1,1x4@3",
        "--op",
        "all-reduce,all-to-all",
        "--sizes",
        "65536,1048576",
        "--name",
        "cli-test",
        "--workers",
        "2",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--out-dir",
        dir.to_str().unwrap(),
    ];
    let (ok, _, stderr) = run(&sweep_args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("8 points (8 simulated, 0 cache hits"), "{stderr}");

    let artifact = dir.join("BENCH_cli-test.json");
    let first = std::fs::read_to_string(&artifact).expect("artifact written");
    let v: serde_json::Value = serde_json::from_str(&first).expect("valid JSON");
    assert_eq!(v["schema"].as_u64(), Some(1));
    assert_eq!(v["points"].as_array().unwrap().len(), 8);

    // Warm re-run: all points served from cache, byte-identical artifact.
    let (ok, _, stderr) = run(&sweep_args);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("8 cache hits"), "{stderr}");
    let second = std::fs::read_to_string(&artifact).unwrap();
    assert_eq!(first, second, "cached re-run must not change a byte");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_spec_file_runs() {
    let dir = std::env::temp_dir().join(format!("astra_cli_specfile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Author a spec through the library API, write it, run it via --spec.
    use astra_sim::sweep::{Axis, SweepSpec};
    use astra_sim::{Experiment, SimConfig};
    let spec = SweepSpec::new(
        "from-file",
        SimConfig::torus(1, 4, 1),
        Experiment::all_reduce(1 << 10),
    )
    .axis(Axis::MessageSizes(vec![1 << 10, 1 << 16]));
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
    let (ok, stdout, stderr) = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--out-dir",
        dir.to_str().unwrap(),
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["name"].as_str(), Some("from-file"));
    assert!(dir.join("BENCH_from-file.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_fail_gracefully() {
    let (ok, _, stderr) = run(&["collective", "--topology", "banana", "--bytes", "1"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
    let (ok, _, _) = run(&["frobnicate"]);
    assert!(!ok);
    let (ok, _, stderr) = run(&["train", "--topology", "2x2x2"]);
    assert!(!ok);
    assert!(stderr.contains("--model"));
}

#[test]
fn unknown_or_incomplete_flags_fail() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["collective", "--topology", "1x4x1", "--bytes", "4096", "--bakend", "garnet"],
            "--bakend",
        ),
        (
            &["collective", "--topology", "1x4x1", "--bytes", "4096", "--faults"],
            "--faults",
        ),
        (
            &["train", "--topology", "2x2x1", "--model", "tiny_mlp", "--jsno"],
            "--jsno",
        ),
        (
            &["collective", "--topology", "1x4x1", "--bytes", "4096", "--json", "extra"],
            "extra",
        ),
    ];
    for (args, named) in cases {
        let (ok, stdout, stderr) = run(args);
        assert!(!ok, "{args:?} should fail, printed: {stdout}");
        assert!(
            stderr.contains("error") && stderr.contains(named),
            "{args:?}: stderr should name {named}: {stderr}"
        );
    }
}
