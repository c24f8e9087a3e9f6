//! `bpls` — list the contents of BP-lite files (the ADIOS inspection tool).
//!
//! ```text
//! cargo run -p adios --bin bpls -- <file.bp> [<file.bp> ...]
//! ```
//!
//! Works on both single-step `.bp` blobs (written by `FileMethod`) and
//! multi-step container files (written by `BpFileWriter`).

use std::collections::BTreeMap;

use adios::bpfile::BpFileReader;
use adios::{AttrValue, StepData};

fn render_attr(attr: &AttrValue) -> String {
    match attr {
        AttrValue::Str(s) => format!("\"{s}\""),
        other => other.to_string(),
    }
}

/// Distinct values seen for each attribute key, with the steps carrying
/// them. Surfaces the provenance labels of a multi-step container without
/// reading every step entry.
type AttrTable = BTreeMap<String, BTreeMap<String, Vec<u64>>>;

fn collect_attrs(table: &mut AttrTable, data: &StepData) {
    for (key, attr) in data.attrs() {
        table
            .entry(key.to_string())
            .or_default()
            .entry(render_attr(attr))
            .or_default()
            .push(data.step());
    }
}

fn print_attr_table(table: &AttrTable) {
    if table.is_empty() {
        return;
    }
    println!("  attribute table:");
    let width = table.keys().map(String::len).max().unwrap_or(0);
    for (key, values) in table {
        if values.len() == 1 {
            let (value, steps) = values.iter().next().expect("non-empty by construction");
            println!("    {key:<width$}  = {value}  ({} step(s))", steps.len());
        } else {
            let total: usize = values.values().map(Vec::len).sum();
            println!("    {key:<width$}  : {} distinct values over {total} step(s)", values.len());
        }
    }
}

fn describe_step(indent: &str, group: &str, data: &StepData) {
    println!("{indent}step {:>6}  group '{group}'", data.step());
    for (name, value) in data.values() {
        let dims = value.dims();
        let shape = if dims.local.is_empty() {
            "scalar".to_string()
        } else if dims.global.is_empty() {
            format!("local[{}]", dims.local.iter().map(u64::to_string).collect::<Vec<_>>().join("x"))
        } else {
            format!(
                "global[{}] offset[{}]",
                dims.global.iter().map(u64::to_string).collect::<Vec<_>>().join("x"),
                dims.offset.iter().map(u64::to_string).collect::<Vec<_>>().join("x")
            )
        };
        println!(
            "{indent}  var  {:<20} {:<4} {:<28} {} bytes",
            name,
            value.dtype().to_string(),
            shape,
            value.byte_len()
        );
    }
    for (key, attr) in data.attrs() {
        let shown = match attr {
            AttrValue::Str(s) => format!("\"{s}\""),
            other => other.to_string(),
        };
        println!("{indent}  attr {key:<20} = {shown}");
    }
}

fn list_file(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    println!("{path}:");
    // Try the container format first, then a single-step blob.
    match BpFileReader::open(path) {
        Ok(mut reader) => {
            println!("  BP container, {} step(s)", reader.len());
            if reader.torn_bytes() > 0 {
                println!("  {} torn byte(s) after the last whole frame", reader.torn_bytes());
            }
            let mut table = AttrTable::new();
            for ix in 0..reader.len() {
                let step = reader.read_at(ix)?;
                describe_step("  ", &step.group, &step.data);
                collect_attrs(&mut table, &step.data);
            }
            print_attr_table(&table);
            Ok(())
        }
        Err(_) => {
            let raw = std::fs::read(path)?;
            let step = adios::bp::decode(bytes::Bytes::from(raw))?;
            println!("  single-step BP blob");
            describe_step("  ", &step.group, &step.data);
            let mut table = AttrTable::new();
            collect_attrs(&mut table, &step.data);
            print_attr_table(&table);
            Ok(())
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: bpls <file.bp> [<file.bp> ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &args {
        if let Err(e) = list_file(path) {
            eprintln!("bpls: {path}: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
