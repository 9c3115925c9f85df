//! The `grafite-server` binary: build a store manifest (`gen`), serve one
//! over TCP (`serve`), or run an end-to-end self-check against a freshly
//! started server (`smoke`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use grafite_core::registry::{FilterSpec, Registry};
use grafite_server::{serve, Client};
use grafite_store::{FamilySpec, FilterStore, Partitioning, Snapshot, StoreConfig};

/// How many connections the smoke's single probes run from at once.
const SMOKE_CONNECTIONS: usize = 4;

const USAGE: &str = "\
usage:
  grafite-server gen   --out PATH [--keys N] [--shards N] [--bpk F] [--seed N]
  grafite-server serve --store PATH [--addr HOST:PORT]
  grafite-server smoke --store PATH [--queries N] [--stats-out PATH]

gen    builds a range-partitioned Grafite store over a deterministic key
       set and writes its manifest to --out.
serve  maps the manifest lazily and serves it until a SHUTDOWN frame.
smoke  starts an ephemeral server on the manifest, replays queries through
       the network (single probes from 4 concurrent connections) and
       directly against the store, fails on any answer mismatch, non-zero
       error counter, or STATS request count that differs from what it
       sent, and prints the STATS JSON.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let result = match it.next().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` extraction over the raw argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn flag_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("{name} wants an integer, got {s:?}")),
    }
}

fn flag_f64(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(s) => s
            .parse::<f64>()
            .map_err(|_| format!("{name} wants a number, got {s:?}")),
    }
}

/// The deterministic key set `gen` builds over (golden-ratio stride, same
/// family as the store tests).
fn gen_keys(n: u64, seed: u64) -> Vec<u64> {
    (0..n)
        .map(|i| i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1)
        .collect()
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("gen needs --out PATH")?;
    let n_keys = flag_u64(args, "--keys", 200_000)?;
    let shards = flag_u64(args, "--shards", 8)?;
    let bpk = flag_f64(args, "--bpk", 14.0)?;
    let seed = flag_u64(args, "--seed", 7)?;
    let keys = gen_keys(n_keys, seed);
    let config = StoreConfig::new(FamilySpec::Registry(FilterSpec::Grafite))
        .bits_per_key(bpk)
        .max_range(1 << 6)
        .seed(seed)
        .partitioning(Partitioning::Range {
            shards: usize::try_from(shards).unwrap_or(usize::MAX),
        });
    let store = FilterStore::build(&Registry::new(), config, &keys).map_err(|e| e.to_string())?;
    let bytes = store.to_bytes();
    // A store opened on `out` keeps reading its lazy shards from the old
    // file, so stage the new manifest beside it and rename it into place
    // instead of truncating the file under that reader.
    let staged = format!("{out}.staged");
    std::fs::write(&staged, &bytes).map_err(|e| e.to_string())?;
    std::fs::rename(&staged, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} keys, {} shards, {} bytes)",
        out,
        store.num_keys(),
        store.snapshot().num_shards(),
        bytes.len()
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--store").ok_or("serve needs --store PATH")?;
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:7878");
    let store = Arc::new(
        FilterStore::open_mapped(&Registry::new(), Path::new(path)).map_err(|e| e.to_string())?,
    );
    let handle = serve(store, addr, Some(PathBuf::from(path))).map_err(|e| e.to_string())?;
    println!("serving {} on {}", path, handle.addr());
    handle.join();
    Ok(())
}

fn cmd_smoke(args: &[String]) -> Result<(), String> {
    let path = flag(args, "--store").ok_or("smoke needs --store PATH")?;
    let n_queries = flag_u64(args, "--queries", 20_000)?;
    let stats_out = flag(args, "--stats-out");

    let registry = Registry::new();
    let store =
        Arc::new(FilterStore::open_mapped(&registry, Path::new(path)).map_err(|e| e.to_string())?);
    let direct = FilterStore::open(&registry, &std::fs::read(path).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let snap = direct.snapshot();

    let handle =
        serve(store, "127.0.0.1:0", Some(PathBuf::from(path))).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;

    // Batch probes on one connection, then single probes from several at
    // once, all bit-compared against the direct store.
    let queries: Vec<(u64, u64)> = (0..n_queries)
        .map(|i| {
            let a = i.wrapping_mul(0xD134_2543_DE82_EF95) >> 1;
            (a, a.saturating_add(i % 61))
        })
        .collect();
    let mut mismatches = 0u64;
    for chunk in queries.chunks(512) {
        let got = client.query_batch(chunk).map_err(|e| e.to_string())?;
        for (&(a, b), &hit) in chunk.iter().zip(&got) {
            if hit != snap.may_contain_range(a, b) {
                mismatches += 1;
            }
        }
    }
    let singles: Vec<(u64, u64)> = queries.iter().copied().step_by(997).collect();
    mismatches += query_concurrently(addr, &singles, &snap)?;

    // Reload mid-session, then probe again on the new snapshot.
    let version = client.reload(None).map_err(|e| e.to_string())?;
    let reloaded: Vec<(u64, u64)> = queries.iter().copied().step_by(1013).collect();
    mismatches += query_concurrently(addr, &reloaded, &snap)?;

    let stats = client.stats_json().map_err(|e| e.to_string())?;
    client.shutdown().map_err(|e| e.to_string())?;
    handle.join();

    if let Some(out) = stats_out {
        std::fs::write(out, &stats).map_err(|e| e.to_string())?;
    }
    println!("{stats}");

    if mismatches > 0 {
        return Err(format!(
            "{mismatches} answers diverged from the direct store"
        ));
    }
    let n_singles = (singles.len() + reloaded.len()) as u64;
    for (object, field, sent) in [
        ("query", "count", n_singles),
        ("batch_query", "count", queries.chunks(512).len() as u64),
        ("batch", "probes", queries.len() as u64 + n_singles),
    ] {
        let counted = stats_count(&stats, object, field);
        if counted != Some(sent) {
            return Err(format!(
                "STATS {object}.{field} is {counted:?}, but the smoke sent {sent}"
            ));
        }
    }
    if stats.contains("\"total_errors\":0,") {
        println!(
            "smoke ok: {} probes, reload -> v{version}, zero errors",
            queries.len() as u64 + n_singles
        );
        Ok(())
    } else {
        Err("server reported non-zero error counters".to_string())
    }
}

/// Sends each of `probes` as one `QUERY`, spread over [`SMOKE_CONNECTIONS`]
/// concurrent connections, and counts the answers that differ from `snap`.
fn query_concurrently(
    addr: std::net::SocketAddr,
    probes: &[(u64, u64)],
    snap: &Snapshot,
) -> Result<u64, String> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..SMOKE_CONNECTIONS)
            .map(|c| {
                scope.spawn(move || -> Result<u64, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut mismatches = 0u64;
                    for &(a, b) in probes.iter().skip(c).step_by(SMOKE_CONNECTIONS) {
                        let hit = client.query(a, b).map_err(|e| e.to_string())?;
                        mismatches += u64::from(hit != snap.may_contain_range(a, b));
                    }
                    Ok(mismatches)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("a smoke connection thread panicked".to_string()))
            })
            .sum()
    })
}

/// The unsigned integer at `"field":` inside the STATS object `"object":{`.
fn stats_count(stats: &str, object: &str, field: &str) -> Option<u64> {
    let body = &stats[stats.find(&format!("\"{object}\":{{"))?..];
    let key = format!("\"{field}\":");
    let value = &body[body.find(&key)? + key.len()..];
    let digits = value
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(value.len());
    value[..digits].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::stats_count;

    #[test]
    fn stats_count_reads_the_named_object() {
        let stats = r#"{"verbs":{"query":{"count":41,"errors":0},"batch_query":{"count":40,"errors":2}},"batch":{"batches":81,"probes":20041,"dedup_hits":0}}"#;
        assert_eq!(stats_count(stats, "query", "count"), Some(41));
        assert_eq!(stats_count(stats, "batch_query", "count"), Some(40));
        assert_eq!(stats_count(stats, "batch", "probes"), Some(20041));
        assert_eq!(stats_count(stats, "apply", "count"), None);
    }
}
