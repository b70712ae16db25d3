//! The harness must not rot: `--quick` runs every workload, untraced and
//! traced, each in its own process, and every one must answer correctly.

use llhd_server::json::Json;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_llhd-benchmark");

#[test]
fn quick_set_runs_every_workload_without_failures() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick.json");
    let status = Command::new(BIN)
        .arg("--quick")
        .arg("--out")
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "--quick exited with {}", status);

    let document = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(document.get("host").and_then(|h| h.get("nproc")).is_some());
    let Some(Json::Obj(workloads)) = document.get("workloads") else {
        panic!("no workloads in the result document");
    };
    assert_eq!(workloads.len(), 8);
    for (name, entry) in workloads {
        for (part, listed) in [("end_to_end", 4), ("per_layer", 95)] {
            let part = entry
                .get(part)
                .unwrap_or_else(|| panic!("{} has no {}", name, part));
            assert_eq!(
                part.get("failed").and_then(Json::as_int),
                Some(0),
                "{}",
                name
            );
            assert!(
                part.get("attempted").and_then(Json::as_int) > Some(0),
                "{}",
                name
            );
            let Some(Json::Obj(metrics)) = part.get("metrics") else {
                panic!("{} has no metrics", name);
            };
            assert_eq!(metrics.len(), listed, "{}", name);
        }
    }

    // Two sets of the same code compare without a crash; on runs this short
    // the verdicts mean nothing, so only the exit code's range is checked.
    let compared = Command::new(BIN)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .output()
        .expect("compare runs");
    assert!(compared.status.success(), "a set is no worse than itself");
    assert!(String::from_utf8_lossy(&compared.stdout).contains("serve-warm"));
}

#[test]
fn the_driver_form_prints_the_result_object_last() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "cold-suite",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = Json::parse(stdout.lines().last().expect("some output")).expect("a JSON object");
    let Json::Obj(fields) = &result else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    for name in ["setup_s", "throughput", "latency_p50_ms", "peak_rss_mb"] {
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{}", name));
        assert!(
            matches!(metric.get("value"), Some(Json::Float(v)) if *v > 0.0),
            "{}",
            name
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let status = Command::new(BIN).args(args).output().expect("runs").status;
        assert_eq!(status.code(), Some(2), "{:?}", args);
    }
}
