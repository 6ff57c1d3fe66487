//! Architecture rules: the "one X" decisions that keep a deleted fork
//! deleted, each stated once, with its reason, and checked on every
//! `cargo test`.
//!
//! Most rules forbid literal strings in a set of paths, searched line by
//! line through every file under them (as `grep -rn` would). One needle,
//! [`Needle::InBraces`], stands for the pattern
//! `collections::\{[^}]*Hash(Map|Set)`. Three rules are not text
//! searches: two walk crates' normal dependency closures, one checks that
//! the retired benchmark baselines stay deleted. This file names every
//! forbidden string, so the searches skip it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The file holding the rule table, which spells every forbidden string.
const SELF: &str = "tests/architecture.rs";

/// What a rule forbids on one line.
#[derive(Debug, Clone, Copy)]
enum Needle {
    /// The literal string.
    Lit(&'static str),
    /// One of `words` after `open` and before the next `}` on that line.
    InBraces {
        open: &'static str,
        words: &'static [&'static str],
    },
}

impl Needle {
    fn is_in(self, line: &str) -> bool {
        match self {
            Needle::Lit(s) => line.contains(s),
            Needle::InBraces { open, words } => line.match_indices(open).any(|(i, _)| {
                let rest = &line[i + open.len()..];
                let inside = &rest[..rest.find('}').unwrap_or(rest.len())];
                words.iter().any(|w| inside.contains(w))
            }),
        }
    }

    /// Whether the needle can be anywhere in `text`: a fast first pass
    /// over a whole file.
    fn may_be_in(self, text: &str) -> bool {
        match self {
            Needle::Lit(s) => text.contains(s),
            Needle::InBraces { open, .. } => text.contains(open),
        }
    }

    /// A line the needle must flag, for the negative controls.
    fn sample(self) -> String {
        match self {
            Needle::Lit(s) => format!("let x = {s} + 1;"),
            Needle::InBraces { open, words } => format!("use std::{open}BTreeMap, {}}};", words[0]),
        }
    }
}

/// How a rule is checked.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// No line of a file under `paths` (only `Cargo.toml` and `*.rs`
    /// files when `code_only`) holds a needle.
    Grep {
        paths: &'static [&'static str],
        code_only: bool,
        forbidden: &'static [Needle],
    },
    /// For each `(manifest, dep)`: the normal dependency closure of the
    /// crate at `manifest` does not reach the package `dep`.
    NoDependency(&'static [(&'static str, &'static str)]),
    /// None of these files exists.
    Absent(&'static [&'static str]),
}

struct Rule {
    name: &'static str,
    reason: &'static str,
    check: Check,
}

use Needle::Lit;

const EVERYWHERE: &[&str] = &["crates", "src", "examples", "tests"];

const RULES: &[Rule] = &[
    Rule {
        name: "The term policy owns the access statistics",
        reason: "Only a TermPolicy that reads per-resource statistics keeps them \
                 (AdaptiveTerm); either name in the server means the map came back \
                 beside the lease table.",
        check: Check::Grep {
            paths: &["crates/core/src/server.rs"],
            code_only: false,
            forbidden: &[Lit("ResourceStats"), Lit("stats_tau")],
        },
    },
    Rule {
        name: "One message path (no channel crate in the workspace)",
        reason: "Protocol messages ride lease-core's SPSC ring lanes only, and what is \
                 not one (a stop signal, a quorum replica's inbox) is std::sync::mpsc; \
                 a crossbeam anywhere in a manifest or a source file means a second \
                 transport crept back in.",
        check: Check::Grep {
            paths: &["Cargo.toml", "crates", "shims", "src"],
            code_only: true,
            forbidden: &[Lit("crossbeam")],
        },
    },
    Rule {
        name: "One topology (a single server is the quorum-less RtSystem)",
        reason: "lease-rt has one assembly, one in-process Port and one kill schedule; \
                 any of these names means the fork beside it is back.",
        check: Check::Grep {
            paths: EVERYWHERE,
            code_only: false,
            forbidden: &[
                Lit("ReplicatedSystem"),
                Lit("ReplicaPort"),
                Lit("ServerPort"),
            ],
        },
    },
    Rule {
        name: "One retry schedule (a full lane is a loss)",
        reason: "A send that finds a shard lane full is refused and forgotten; the \
                 cache's retransmission timer is what sends it again. A blocking \
                 SvcHandle send or a paced resubmission queue in lease-rt is a second \
                 retry path creeping back.",
        check: Check::Grep {
            paths: EVERYWHERE,
            code_only: false,
            forbidden: &[
                Lit("RETRY_AFTER"),
                Lit("RetryAfter"),
                Lit("flush_resend"),
                Lit("lane_push_all"),
                Lit("fn send_at"),
                Lit("fn send_batch"),
            ],
        },
    },
    Rule {
        name: "One pacing rule per side (the cache paces, the shard sheds)",
        reason: "The client's retransmission timer is the only pacing policy and \
                 admission control the only load response; a circuit breaker in the \
                 driver, a port verdict for it to read, or a controller shortening \
                 granted terms under load is a second policy creeping back in.",
        check: Check::Grep {
            paths: EVERYWHERE,
            code_only: false,
            forbidden: &[
                Lit("CircuitBreaker"),
                Lit("TermController"),
                Lit("set_pressure"),
                Lit("term_level"),
                Lit("degraded_grants"),
                Lit("PortVerdict"),
                Lit("overload_control"),
            ],
        },
    },
    Rule {
        name: "One client under load (the overload judges drive RtSystem's clients)",
        reason: "Both overload scenarios offer their load through RtClientHandle, so \
                 what they judge is the traffic a shipped client sends; a SvcHandle, \
                 an EgressRx, a LeaseService or a try_send_at there means a \
                 hand-rolled client, with its own pacing, crept back in.",
        check: Check::Grep {
            paths: &["crates/bench/src/bin/overload.rs"],
            code_only: false,
            forbidden: &[
                Lit("SvcHandle"),
                Lit("EgressRx"),
                Lit("LeaseService"),
                Lit("try_send_at"),
            ],
        },
    },
    Rule {
        name: "A hit is local (no command channel under the client runtime)",
        reason: "Applications reach a client's cache through its driver lock, on their \
                 own thread; a ClientCmd anywhere under crates/rt means the application \
                 -> client-thread hand-off crept back in.",
        check: Check::Grep {
            paths: &["crates/rt"],
            code_only: false,
            forbidden: &[Lit("ClientCmd")],
        },
    },
    Rule {
        name: "A reply is resolved where it is read (one reply path for sockets)",
        reason: "A NetClient's socket reader feeds the cache under the driver lock; a \
                 reader -> lane -> IO thread hop, a lane capacity for it, or a \
                 reconnection flag polled through the Port trait means the second path \
                 crept back in.",
        check: Check::Grep {
            paths: &["crates/rt/src"],
            code_only: false,
            forbidden: &[Lit("fn reconnected"), Lit("EgressWorker"), Lit("LANE_CAP")],
        },
    },
    Rule {
        name: "A thread frees what it allocates (reply lanes carry plain data)",
        reason: "A reply lane's slot is lease-svc's fixed-size Reply, converted on the \
                 shard's thread, so a one-grant reply's Vec is freed where it was \
                 allocated. A lane or inbox typed over ToClient means replies carry the \
                 shard's allocations across threads again.",
        check: Check::Grep {
            paths: &["crates", "src"],
            code_only: false,
            forbidden: &[Lit("Lanes<ToClient"), Lit("Inbox<ToClient")],
        },
    },
    Rule {
        name: "One event queue (no backend choice in the simulator)",
        reason: "lease-sim's EventQueue is one BinaryHeap; a QueueKind anywhere means \
                 the wheel-vs-heap fork crept back in.",
        check: Check::Grep {
            paths: &["crates", "src"],
            code_only: false,
            forbidden: &[Lit("QueueKind")],
        },
    },
    Rule {
        name: "One simulator, one fault plan",
        reason: "The file-system simulator hosts the grantor quorum: its replicas are \
                 lease-vsys ServerActors on lease-sim's World, the election rides the one \
                 SimNet, and SimNet reads lease-faults' FaultPlan. An event loop beside \
                 the World, a medium for the quorum of its own or a second fault \
                 vocabulary beside the simulated network means the fork crept back in.",
        check: Check::Grep {
            paths: &[
                "crates/quorum/src",
                "crates/vsys",
                "crates/baselines",
                "crates/faults",
                "examples",
                "src",
            ],
            code_only: false,
            forbidden: &[
                Lit("EvKind"),
                Lit("BinaryHeap"),
                Lit("FaultPlanNet"),
                Lit("Partition::new"),
                Lit("with_jitter"),
                Lit("ReplicaNet"),
                Lit("SimOutcome"),
            ],
        },
    },
    Rule {
        name: "One client configuration (no copied option fields)",
        reason: "lease-core's ClientConfig declares every client option once; the \
                 simulator, the socket fleet, the in-process builder and the write-back \
                 harness each hold one `client` and pass it on. A field of the same \
                 name there means a copy crept back in.",
        check: Check::Grep {
            paths: &[
                "crates/vsys/src",
                "crates/rt/src",
                "crates/wb/src/harness.rs",
            ],
            code_only: false,
            forbidden: &[
                Lit("pub epsilon:"),
                Lit("pub retry_interval:"),
                Lit("pub max_retries:"),
                Lit("pub op_deadline:"),
                Lit("pub retry_budget:"),
                Lit("pub batch_extensions:"),
                Lit("pub anticipatory:"),
                Lit("pub cache_capacity:"),
                Lit("pub flush_interval:"),
            ],
        },
    },
    Rule {
        name: "One client configuration (no copied option setters)",
        reason: "lease-core's ClientConfig declares every client option once; a setter \
                 of the same name on the client runtime means a copy crept back in.",
        check: Check::Grep {
            paths: &["crates/rt/src"],
            code_only: false,
            forbidden: &[
                Lit("fn epsilon("),
                Lit("fn retry_interval("),
                Lit("fn max_retries("),
                Lit("fn backoff("),
                Lit("fn op_deadline("),
                Lit("fn retry_budget("),
            ],
        },
    },
    Rule {
        name: "One live fault plan (a wall-clock run reads it through LiveFaults)",
        reason: "RtSystem, its sinks and ports, and the quorum runtime read cuts and \
                 dice through one lease_svc::chaos::LiveFaults, and its one sleeper \
                 replays every delay and kill. A second reader, a second sleeper or \
                 kill thread, a second cut switch, a store wrapper beside \
                 SharedBackend, a restart hook, or a load schedule inside FaultPlan \
                 means a fork crept back in.",
        check: Check::Grep {
            paths: EVERYWHERE,
            code_only: false,
            forbidden: &[
                Lit("ChaosNet"),
                Lit("DelayPool"),
                Lit("chaos_stop"),
                Lit("lease-chaos"),
                Lit("GatedBackend"),
                Lit("on_restart"),
                Lit("with_overload"),
                Lit("Vec<Arc<AtomicBool>>"),
            ],
        },
    },
    Rule {
        name: "One hasher rule (std maps stay off the renewal path)",
        reason: "Maps and stores keyed by ids this process minted, by the local \
                 application's reads or by a simulated trace use lease-core's Fx hasher \
                 (FxMap / FxSet, and lease_vsys::Store for the simulated server's \
                 store); a std HashMap or HashSet imported into the client caches, the \
                 client runtime, the file-system simulator, its network model or the §6 \
                 baselines' servers means SipHash crept back onto the renewal path (and, \
                 in a baseline, a per-process random seed picks the order a multicast \
                 walks its recipients in).",
        check: Check::Grep {
            paths: &[
                "crates/core/src/client.rs",
                "crates/rt/src/client.rs",
                "crates/vsys/src",
                "crates/wb/src/client.rs",
                "crates/baselines/src",
            ],
            code_only: false,
            forbidden: &[
                Lit("collections::HashMap"),
                Lit("collections::HashSet"),
                Needle::InBraces {
                    open: "collections::{",
                    words: &["HashMap", "HashSet"],
                },
            ],
        },
    },
    Rule {
        name: "One hasher rule (peer-keyed index maps stay RandomState)",
        reason: "Maps keyed by what a peer sends stay RandomState (hash.rs); the lease \
                 table's and the store's flat index maps are among them.",
        check: Check::Grep {
            paths: &[
                "crates/core/src/flat.rs",
                "crates/core/src/table/slab.rs",
                "crates/core/src/storage.rs",
            ],
            code_only: false,
            forbidden: &[Lit("FxMap"), Lit("FxSet"), Lit("FxHasher")],
        },
    },
    Rule {
        name: "The simulator's store follows the hasher rule",
        reason: "The simulator picks every key of its store (the trace's file ids), \
                 so its servers take lease_vsys::Store, a MemStorage under the Fx \
                 hasher. A default-hasher store built or named in the simulator or the \
                 §6 baselines puts a SipHash back on every piggybacked renewal.",
        check: Check::Grep {
            paths: &[
                "crates/vsys/src",
                "crates/baselines/src",
                "crates/wb/src/harness.rs",
            ],
            code_only: false,
            forbidden: &[
                Lit("MemStorage::new("),
                Lit("MemStorage<Res, Data>"),
                Lit("MemStorage<Res, u64>"),
            ],
        },
    },
    Rule {
        name: "The simulation kernel is protocol-independent",
        reason: "lease-sim needed lease-core only for the wheel backend.",
        check: Check::NoDependency(&[("crates/sim/Cargo.toml", "lease-core")]),
    },
    Rule {
        name: "One failure model below both worlds",
        reason: "lease-faults owns the fault plan, the history and the oracle, and \
                 lease-vsys owns the simulated network, so the simulator links no \
                 threaded service or socket code and the wall-clock runtime and the \
                 quorum link no simulator of the file system. An edge here means a \
                 type moved back into the wrong world (and lease-quorum -> lease-vsys \
                 is a cycle: lease-vsys hosts the grantor).",
        check: Check::NoDependency(&[
            ("crates/faults/Cargo.toml", "lease-vsys"),
            ("crates/faults/Cargo.toml", "lease-svc"),
            ("crates/faults/Cargo.toml", "lease-sim"),
            ("crates/vsys/Cargo.toml", "lease-svc"),
            ("crates/vsys/Cargo.toml", "lease-net"),
            ("crates/vsys/Cargo.toml", "lease-wire"),
            ("crates/rt/Cargo.toml", "lease-vsys"),
            ("crates/rt/Cargo.toml", "lease-workload"),
            ("crates/quorum/Cargo.toml", "lease-vsys"),
            ("crates/net/Cargo.toml", "lease-sim"),
        ]),
    },
    Rule {
        name: "lease-quorum is sans-IO; each world hosts it",
        reason: "GrantorNode takes an explicit now, messages in and messages out, as \
                 lease-core's machines do; lease-rt runs it on threads behind a gate and \
                 lease-vsys beside its simulated lease server. A simulator, a threaded \
                 service or a fault plan under lease-quorum means a host crept back into \
                 it, and a simulator under lease-rt means the wall-clock runtime links \
                 the simulated world again.",
        check: Check::NoDependency(&[
            ("crates/quorum/Cargo.toml", "lease-sim"),
            ("crates/quorum/Cargo.toml", "lease-svc"),
            ("crates/quorum/Cargo.toml", "lease-faults"),
            ("crates/rt/Cargo.toml", "lease-sim"),
        ]),
    },
    Rule {
        name: "One failure model below both worlds (one import path)",
        reason: "FaultPlan is lease_faults::FaultPlan and SimNet is \
                 lease_vsys::SimNet; an alias in the threaded service, the simulator, \
                 the runtime or the socket crate is a second home for the same type.",
        check: Check::Grep {
            paths: EVERYWHERE,
            code_only: false,
            forbidden: &[
                Lit("chaos::FaultPlan"),
                Lit("lease_svc::FaultPlan"),
                Lit("lease_vsys::FaultPlan"),
                Lit("lease_rt::FaultPlan"),
                Lit("lease_net::SimNet"),
            ],
        },
    },
    Rule {
        name: "One measurement system (benchmark/ is the only speed judge)",
        reason: "The quick-mode baselines benchmark/ replaced stay deleted; \
                 BENCH_overload.json and BENCH_quorum.json judge behaviour and stay.",
        check: Check::Absent(&[
            "BENCH_svc.json",
            "BENCH_net.json",
            "BENCH_table.json",
            "BENCH_sim.json",
        ]),
    },
    Rule {
        name: "One succession step (a shard enters §5 recovery itself)",
        reason: "A fresh acquisition bumps the GrantorGate's session, and each shard, \
                 reading it through SvcHooks::session at every wakeup, restarts before \
                 it answers for the new grantor. An acquisition hook, a registry of \
                 service handles, or a shard kill through a bare service handle (the \
                 plan's kill schedule goes through router.svc(r)) means the restart is \
                 pushed from outside again, after the gate has opened.",
        check: Check::Grep {
            paths: &["crates/rt/src", "crates/quorum/src"],
            code_only: false,
            forbidden: &[
                Lit("on_acquire"),
                Lit("QuorumHooks { on_acquire"),
                Lit("Mutex<Vec<SvcHandle"),
                Lit("svc.kill_shard("),
                Lit("handle().kill_shard("),
            ],
        },
    },
    Rule {
        name: "One shard step (a restart is a ShardCore step, not a panic)",
        reason: "lease_core::ShardCore owns the restart, the session check and the \
                 epoch-tagged write ids, and the shard thread and the simulator both \
                 drive it. Epoch arithmetic, a write-id rewrite or a bare crash and \
                 recover in lease-svc means the thread grew its own copy of the step; \
                 a stash of inputs carried across an unwind or a kill's panic message \
                 means kills are panics again.",
        check: Check::Grep {
            paths: &["crates/svc/src"],
            code_only: false,
            forbidden: &[
                Lit("EPOCH_BITS"),
                Lit("EPOCH_MASK"),
                Lit("globalize"),
                Lit(".crash()"),
                Lit(".recover("),
                Lit("stash"),
                Lit("INJECTED_KILL"),
            ],
        },
    },
    Rule {
        name: "One shard step (no panic hook hides a kill)",
        reason: "A shard kill restarts the shard without a panic, so there is nothing \
                 for a process-wide hook to silence; one that swallows panics by their \
                 message would hide a real crash.",
        check: Check::Grep {
            paths: &["crates"],
            code_only: false,
            forbidden: &[Lit("silence_injected_kills")],
        },
    },
    Rule {
        name: "One simulated client and server (the write-back tokens and the §6 \
               baselines run on lease-vsys's actors)",
        reason: "lease-wb's cache and server and the §6 baselines' callback and TTL \
                 servers are sans-IO machines run by lease-vsys's ClientActor and \
                 ServerActor in a world lease_vsys::assemble builds; an actor or a \
                 world of their own means the copy (its routing, warm-up gate, history \
                 commits and counting) crept back in.",
        check: Check::Grep {
            paths: &["crates/wb/src", "crates/baselines/src"],
            code_only: false,
            forbidden: &[Lit("lease_sim"), Lit("World::new"), Lit("impl Actor")],
        },
    },
    Rule {
        name: "The simulator counts in types",
        reason: "A simulated run counts into lease_vsys::Tally's fields, each server \
                 message by its TrafficClass and each grantor election message apart \
                 from them; a registry of counters named by strings reads a misspelt \
                 name as 0 without any error.",
        check: Check::Grep {
            paths: &[
                "crates/sim/src",
                "crates/vsys/src",
                "crates/baselines/src",
                "crates/wb/src",
                "crates/quorum/src",
            ],
            code_only: false,
            forbidden: &[
                Lit("Metrics"),
                Lit("metrics()"),
                Lit("\"srv."),
                Lit("\"client."),
            ],
        },
    },
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every regular file under `path` (or `path` itself), not following
/// symbolic links, in a fixed order.
fn files_under(path: &Path, out: &mut Vec<PathBuf>) {
    let Ok(meta) = fs::symlink_metadata(path) else {
        return;
    };
    if meta.is_file() {
        out.push(path.to_path_buf());
    } else if meta.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .expect("readable directory")
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for e in entries {
            files_under(&e, out);
        }
    }
}

/// Each `(file:line, text)` under `paths` that holds one of `forbidden`.
fn grep(
    paths: &[&str],
    code_only: bool,
    forbidden: &[Needle],
    cache: &mut BTreeMap<PathBuf, String>,
) -> Vec<String> {
    let mut files = Vec::new();
    for p in paths {
        files_under(&root().join(p), &mut files);
    }
    let mut hits = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root())
            .expect("under the root")
            .to_path_buf();
        let is_code = rel.extension().is_some_and(|e| e == "rs")
            || rel.file_name().is_some_and(|n| n == "Cargo.toml");
        if rel == Path::new(SELF) || (code_only && !is_code) {
            continue;
        }
        let text = cache.entry(file.clone()).or_insert_with(|| {
            String::from_utf8_lossy(&fs::read(&file).expect("readable")).into_owned()
        });
        if !forbidden.iter().any(|needle| needle.may_be_in(text)) {
            continue;
        }
        for (n, line) in text.lines().enumerate() {
            if forbidden.iter().any(|needle| needle.is_in(line)) {
                hits.push(format!("{}:{}: {}", rel.display(), n + 1, line.trim()));
            }
        }
    }
    hits
}

/// The packages a manifest's normal (not dev or build) dependency sections
/// name.
fn normal_deps(manifest: &str) -> Vec<(String, Option<String>)> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line.ends_with("dependencies]")
                && !line.contains("dev-dependencies")
                && !line.contains("build-dependencies");
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name = line.split(['.', '=']).next().unwrap_or("").trim();
        deps.push((name.to_string(), path_of(line)));
    }
    deps
}

/// The `path = "..."` value on a manifest line, if any.
fn path_of(line: &str) -> Option<String> {
    let rest = &line[line.find("path")? + 4..];
    let rest = &rest[rest.find('"')? + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Each `[workspace.dependencies]` package of the root manifest, with its
/// path.
fn workspace_paths() -> BTreeMap<String, String> {
    let root_manifest = fs::read_to_string(root().join("Cargo.toml")).expect("root manifest");
    root_manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.dependencies]")
        .skip(1)
        .take_while(|l| !l.trim().starts_with('['))
        .filter_map(|l| Some((l.split('=').next()?.trim().to_string(), path_of(l)?)))
        .collect()
}

/// The packages reachable from `manifest` over normal dependency edges,
/// following path dependencies (workspace ones through the root manifest).
fn dependency_closure(manifest: &str) -> BTreeSet<String> {
    let workspace = workspace_paths();
    let mut seen = BTreeSet::new();
    let mut todo = vec![root().join(manifest)];
    while let Some(m) = todo.pop() {
        let text = fs::read_to_string(&m).expect("crate manifest");
        for (name, path) in normal_deps(&text) {
            let dir = match path {
                Some(p) => m.parent().expect("crate dir").join(p),
                None => match workspace.get(&name) {
                    Some(p) => root().join(p),
                    None => continue,
                },
            };
            if seen.insert(name) {
                todo.push(dir.join("Cargo.toml"));
            }
        }
    }
    seen
}

fn violations(rule: &Rule, cache: &mut BTreeMap<PathBuf, String>) -> Vec<String> {
    match rule.check {
        Check::Grep {
            paths,
            code_only,
            forbidden,
        } => grep(paths, code_only, forbidden, cache),
        Check::NoDependency(pairs) => pairs
            .iter()
            .filter(|(manifest, dep)| dependency_closure(manifest).contains(*dep))
            .map(|(manifest, dep)| format!("{manifest}: depends on {dep}"))
            .collect(),
        Check::Absent(files) => absent_violations(root(), files),
    }
}

fn absent_violations(dir: &Path, files: &[&str]) -> Vec<String> {
    files
        .iter()
        .filter(|f| dir.join(f).exists())
        .map(|f| format!("{f}: exists"))
        .collect()
}

#[test]
fn every_architecture_rule_holds() {
    let mut cache = BTreeMap::new();
    let mut report = String::new();
    for rule in RULES {
        let hits = violations(rule, &mut cache);
        if !hits.is_empty() {
            report += &format!("rule `{}`:\n", rule.name);
            for h in hits {
                report += &format!("  {h}\n");
            }
            report += &format!("  why: {}\n", rule.reason);
        }
    }
    assert!(report.is_empty(), "architecture rules broken:\n{report}");
}

#[test]
fn every_rule_flags_its_own_forbidden_strings() {
    for rule in RULES {
        match rule.check {
            Check::Grep { forbidden, .. } => {
                for needle in forbidden {
                    let line = needle.sample();
                    assert!(needle.is_in(&line), "{}: misses {line:?}", rule.name);
                    assert!(
                        !needle.is_in("let x = 1;"),
                        "{}: flags a clean line",
                        rule.name
                    );
                }
            }
            Check::NoDependency(pairs) => {
                let workspace = workspace_paths();
                for (_, dep) in pairs {
                    // A misspelt package would make the rule pass vacuously.
                    assert!(
                        workspace.contains_key(*dep),
                        "{}: {dep} is no workspace package",
                        rule.name
                    );
                    let normal = format!("[dependencies]\n{dep}.workspace = true\n");
                    let dev = format!("[dev-dependencies]\n{dep}.workspace = true\n");
                    let names = |m: &str| -> Vec<String> {
                        normal_deps(m).into_iter().map(|(n, _)| n).collect()
                    };
                    assert_eq!(names(&normal), vec![dep.to_string()], "{}", rule.name);
                    assert!(
                        names(&dev).is_empty(),
                        "{}: dev edges are not normal",
                        rule.name
                    );
                }
            }
            Check::Absent(files) => {
                let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("architecture");
                fs::create_dir_all(&dir).expect("scratch dir");
                for f in files {
                    fs::write(dir.join(f), "{}").expect("scratch file");
                }
                assert_eq!(
                    absent_violations(&dir, files).len(),
                    files.len(),
                    "{}",
                    rule.name
                );
                fs::remove_dir_all(&dir).expect("scratch dir removed");
            }
        }
    }
}

#[test]
fn the_braced_import_needle_stops_at_the_brace() {
    let needle = Needle::InBraces {
        open: "collections::{",
        words: &["HashMap", "HashSet"],
    };
    assert!(needle.is_in("use std::collections::{BTreeMap, HashSet, VecDeque};"));
    assert!(!needle.is_in("use std::collections::{BTreeMap, VecDeque}; // HashMap"));
    assert!(!needle.is_in("use lease_core::FxMap; // not a collections::HashMap import"));
}
