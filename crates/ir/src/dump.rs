//! Human-readable IR listings for `sct hybrid --dump-ir` and debugging.

use crate::{CapSrc, CompiledProgram, Instr, SiteAction};
use std::fmt::Write;

/// Renders the whole compiled program: a header, every lambda template,
/// and every top-level form, with operands resolved against the pools
/// (constants as datum text, labels verbatim, call sites with their
/// baked-in enforcement decision).
pub fn dump(cp: &CompiledProgram) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        ";; sct-ir v{}: {} instrs, {} templates, {} consts, {} sites ({} specialized){}",
        crate::CODEGEN_VERSION,
        cp.code.len(),
        cp.templates.len(),
        cp.consts.len(),
        cp.sites.len(),
        cp.specialized_sites(),
        if cp.planned { ", plan-directed" } else { "" },
    );
    let mut regions: Vec<(u32, String)> = Vec::new();
    for t in &cp.templates {
        let caps: Vec<String> = t
            .captures
            .iter()
            .map(|c| match c {
                CapSrc::Local(i) => format!("local {i}"),
                CapSrc::Capture(i) => format!("capture {i}"),
            })
            .collect();
        regions.push((
            t.entry,
            format!(
                "lambda {} ({}; params {}{}, frame {}, captures [{}])",
                t.def.id,
                t.def.describe(),
                t.def.params,
                if t.def.variadic { "+rest" } else { "" },
                t.frame_size,
                caps.join(", "),
            ),
        ));
    }
    for (i, top) in cp.top.iter().enumerate() {
        let what = match top.define {
            Some(g) => format!("define global {g}"),
            None => "expression".to_string(),
        };
        regions.push((
            top.entry,
            format!("top {i} ({what}, frame {})", top.frame_size),
        ));
    }
    regions.sort_by_key(|(entry, _)| *entry);
    let mut bounds: Vec<u32> = regions.iter().map(|(e, _)| *e).skip(1).collect();
    bounds.push(cp.code.len() as u32);
    for ((entry, header), end) in regions.iter().zip(bounds) {
        let _ = writeln!(out, "\n{header}:");
        for pc in *entry..end {
            let _ = writeln!(out, "{:6}  {}", pc, render(cp, cp.code[pc as usize]));
        }
    }
    out
}

fn render(cp: &CompiledProgram, i: Instr) -> String {
    match i {
        Instr::Const(ix) => format!("const         {}", cp.consts[ix as usize]),
        Instr::Void => "void".into(),
        Instr::LoadLocal(i) => format!("load-local    {i}"),
        Instr::LoadLocalChecked(i) => format!("load-local    {i} (checked)"),
        Instr::LoadLocalCell(i) => format!("load-cell     {i}"),
        Instr::LoadCapture(i) => format!("load-capture  {i}"),
        Instr::LoadCaptureCell(i) => format!("load-capture  {i} (cell)"),
        Instr::StoreLocal(i) => format!("store-local   {i}"),
        Instr::StoreLocalCell(i) => format!("store-cell    {i}"),
        Instr::StoreCaptureCell(i) => format!("store-capture {i} (cell)"),
        Instr::LoadGlobal(g) => format!("load-global   {g}"),
        Instr::StoreGlobal(g) => format!("store-global  {g}"),
        Instr::PrimVal(p) => format!("prim          {}", p.name()),
        Instr::MakeClosure(id) => format!(
            "make-closure  lambda {id} ({})",
            cp.templates[id as usize].def.describe()
        ),
        Instr::Jump(t) => format!("jump          {t}"),
        Instr::JumpIfFalse(t) => format!("jump-if-false {t}"),
        Instr::Pop => "pop".into(),
        Instr::PopLocal(i) => format!("pop-local     {i}"),
        Instr::PopLocalCell(i) => format!("pop-cell      {i} (fresh)"),
        Instr::InitLocalCell(i) => format!("init-cell     {i}"),
        Instr::ClearLocal(i) => format!("clear-local   {i}"),
        Instr::MakeCell(i) => format!("make-cell     {i}"),
        Instr::BoxLocal(i) => format!("box-local     {i}"),
        Instr::WrapTerm(l) => format!("wrap-term     {:?}", &cp.labels[l as usize]),
        Instr::CallPrim { prim, argc } => format!("call-prim     {} argc={argc}", prim.name()),
        Instr::Call { argc, site } => format!("call          argc={argc} {}", site_text(cp, site)),
        Instr::TailCall { argc, site } => {
            format!("tail-call     argc={argc} {}", site_text(cp, site))
        }
        Instr::Return => "return".into(),
        Instr::LoadLocal2(a, b) => format!("load-local2   {a} {b}"),
        Instr::LoadLocalCallPrim { local, prim, argc } => {
            format!("load-local+call-prim {local} {} argc={argc}", prim.name())
        }
        Instr::ConstCallPrim { cix, prim, argc } => format!(
            "const+call-prim {} {} argc={argc}",
            cp.consts[cix as usize],
            prim.name()
        ),
        Instr::CallPrimJumpIfFalse { prim, argc, target } => {
            format!(
                "call-prim+jump-if-false {} argc={argc} {target}",
                prim.name()
            )
        }
        Instr::LoadLocalReturn(i) => format!("load-local+return {i}"),
    }
}

fn site_text(cp: &CompiledProgram, site: u32) -> String {
    match &cp.sites[site as usize].action {
        SiteAction::Generic => "site=generic".to_string(),
        SiteAction::Skip { lambda } => format!("site=skip(lambda {lambda})"),
        SiteAction::Guarded { lambda, doms } => {
            let d: Vec<&str> = doms.iter().map(|d| d.label()).collect();
            format!("site=guarded(lambda {lambda} [{}])", d.join(" "))
        }
        SiteAction::Monitored { lambda } => format!("site=monitored(lambda {lambda})"),
    }
}
