//! `sct monitor` on values far larger than the Rust stack is deep: the
//! Figure 5 order walk must not recurse along a list's spine.

use std::process::Command;

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
