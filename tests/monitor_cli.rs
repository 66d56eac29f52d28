//! The `sct` command line: `sct monitor` on values far larger than the
//! Rust stack is deep (the Figure 5 order walk must not recurse along a
//! list's spine), the file argument found wherever it sits among the
//! flags, and how `sct verify` reads its signature argument.

use std::process::{Command, Output};

/// `a16` is a 524288-element list built by 16 `append` doublings; every
/// monitored `count-down` call relates the old list argument to the new
/// fixnum argument, which walks the whole list.
#[test]
fn monitor_relates_a_half_million_element_list_to_a_fixnum() {
    let mut source = String::from("(define a0 (list 1 2 3 4 5 6 7 8))\n");
    for i in 1..=16 {
        source.push_str(&format!("(define a{i} (append a{} a{}))\n", i - 1, i - 1));
    }
    source.push_str(
        "(define (count-down l k) (if (zero? k) (length l) (count-down l (- k 1))))\n\
         (count-down a16 3)\n",
    );
    let path = std::env::temp_dir().join(format!("sct-deep-list-{}.sct", std::process::id()));
    std::fs::write(&path, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sct"))
        .arg("monitor")
        .arg(&path)
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(stdout.lines().last(), Some("524288"), "{stdout}");
}

/// Runs `sct` with `args`, where `FILE` stands for a scratch program
/// counting down from 3.
fn sct_on_countdown(tag: &str, args: &[&str]) -> Output {
    let path = std::env::temp_dir().join(format!("sct-args-{tag}-{}.sct", std::process::id()));
    std::fs::write(
        &path,
        "(define (f n) (if (zero? n) 1 (f (- n 1))))\n(f 3)\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sct"))
        .args(args.iter().map(|a| match *a {
            "FILE" => path.as_os_str(),
            a => a.as_ref(),
        }))
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn flags_may_come_before_the_file() {
    let plan = sct_on_countdown("plan", &["hybrid", "--plan", "FILE"]);
    assert_eq!(plan.status.code(), Some(0), "{plan:?}");
    assert!(String::from_utf8_lossy(&plan.stdout).contains("\"sct-plan/3\""));

    let fuel = sct_on_countdown("fuel", &["monitor", "--fuel", "5", "FILE"]);
    assert_eq!(fuel.status.code(), Some(1), "{fuel:?}");
    assert!(String::from_utf8_lossy(&fuel.stderr).contains("out of fuel"));

    let metrics = sct_on_countdown("metrics", &["run", "--metrics", "FILE"]);
    assert_eq!(metrics.status.code(), Some(0), "{metrics:?}");
    assert_eq!(String::from_utf8_lossy(&metrics.stdout), "1\n");
    assert!(String::from_utf8_lossy(&metrics.stderr).contains("; metric vm.runs 1"));

    // A flag's value is never the file, wherever the pair sits.
    let order = sct_on_countdown("order", &["hybrid", "--order", "default", "FILE", "--plan"]);
    assert_eq!(order.status.code(), Some(0), "{order:?}");
}

#[test]
fn no_file_or_two_files_is_a_usage_error() {
    for args in [
        &["hybrid", "--plan"][..],
        &["monitor", "--fuel", "5"],
        &["run", "FILE", "FILE"],
        &["hybrid", "FILE", "--plan", "FILE"],
    ] {
        let out = sct_on_countdown("usage", args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}: {out:?}"
        );
    }
}

#[test]
fn verify_reads_the_signature_argument() {
    let path = std::env::temp_dir().join(format!("sct-verify-sig-{}.sct", std::process::id()));
    std::fs::write(
        &path,
        "(define (k) 5)\n(define (add m n) (if (zero? m) n (add (- m 1) (+ n 1))))\n",
    )
    .unwrap();
    let verify = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sct"))
            .arg("verify")
            .arg(&path)
            .args(args)
            .output()
            .unwrap()
    };
    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();

    let unknown = verify(&["add", "nat,gnat -> nat"]);
    assert_eq!(unknown.status.code(), Some(2), "{unknown:?}");
    assert!(
        String::from_utf8_lossy(&unknown.stderr)
            .contains("unknown domain gnat (nat|pos|int|list|any)"),
        "{unknown:?}"
    );

    // No signature, or an empty one, declares a nullary function.
    for args in [&["k"][..], &["k", ""]] {
        let out = verify(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        assert_eq!(stdout(&out), "verified ()\n", "{args:?}");
    }
    let add = verify(&["add", ""]);
    assert_eq!(add.status.code(), Some(1), "{add:?}");
    assert_eq!(
        stdout(&add),
        "not verified: add expects 2 parameters but the spec declares 0\n"
    );

    // Spaces around `,` and `->` are accepted.
    for sig in ["nat,nat -> nat", " nat ,  nat  ->  nat ", "nat , nat->nat"] {
        let out = verify(&["add", sig]);
        assert_eq!(out.status.code(), Some(0), "{sig:?}: {out:?}");
        assert_eq!(stdout(&out), "verified (add: 1 graphs)\n", "{sig:?}");
    }
    std::fs::remove_file(&path).ok();
}
