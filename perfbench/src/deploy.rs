//! The served deployments a workload talks to over loopback TCP: one
//! `Engine`, or four shard `Engine`s fronted by a `CoordinatorEngine`.

use bbs_remote::{CoordinatorEngine, CoordinatorOptions, NodeSpec, Topology};
use bbs_server::{Bind, Client, Engine, RequestHandler, ServerConfig, ServerHandle};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Signature width `m` of every deployment (the paper's m = 1600).
pub const WIDTH: usize = 1600;
/// Page-cache capacity per file handle (the `bbs serve` default).
pub const CACHE_PAGES: usize = 4096;
/// Shards behind the coordinator in `quest-scatter`.
pub const SHARDS: usize = 4;

/// The `bbs serve` defaults at the paper's width: 50 ms commit window,
/// fsync on every commit, mine threads = all cores.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        width: WIDTH,
        cache_pages: CACHE_PAGES,
        ..ServerConfig::default()
    }
}

pub fn tcp_bind() -> Bind {
    Bind {
        tcp: Some("127.0.0.1:0".into()),
        unix: None,
    }
}

pub fn io_err(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Opens a client with a generous reply timeout (a distributed mine can
/// take seconds).
pub fn connect(addr: &str) -> io::Result<Client> {
    let mut client = Client::connect_tcp(addr).map_err(io_err)?;
    client
        .set_timeout(Some(Duration::from_secs(120)))
        .map_err(io_err)?;
    Ok(client)
}

fn shutdown<H: RequestHandler>(handle: ServerHandle<H>) {
    if let Some(addr) = handle.tcp_addr() {
        if let Ok(mut c) = Client::connect_tcp(addr) {
            c.shutdown_server().ok();
        }
    }
    handle.join();
}

/// A running deployment plus the directory its files live in.
pub enum Served {
    Single {
        handle: ServerHandle<Engine>,
        addr: String,
    },
    Scatter {
        shards: Vec<ServerHandle<Engine>>,
        coordinator: ServerHandle<CoordinatorEngine>,
        addr: String,
    },
}

impl Served {
    /// One engine over `<dir>/node`, optionally also listening on a Unix
    /// socket.
    pub fn single(dir: &Path, unix: Option<PathBuf>) -> io::Result<Served> {
        std::fs::create_dir_all(dir)?;
        let engine = Engine::open(&dir.join("node"), server_config())?;
        let handle = bbs_server::serve(engine, &Bind { unix, ..tcp_bind() })?;
        let addr = handle.tcp_addr().expect("tcp bound").to_string();
        Ok(Served::Single { handle, addr })
    }

    /// `SHARDS` shard engines over `<dir>/shard-N`, each on its own
    /// loopback port, behind one coordinator.
    pub fn scatter(dir: &Path) -> io::Result<Served> {
        std::fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(SHARDS);
        let mut nodes = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let engine = Engine::open(&dir.join(format!("shard-{s}")), server_config())?;
            let handle = bbs_server::serve(engine, &tcp_bind())?;
            nodes.push(NodeSpec {
                id: s as u32,
                primary: handle.tcp_addr().expect("tcp bound").to_string(),
                follower: None,
            });
            shards.push(handle);
        }
        let topology = Topology {
            version: bbs_remote::TOPOLOGY_VERSION,
            shards: SHARDS,
            width: WIDTH,
            hasher: "md5/4".into(),
            nodes,
        };
        let coordinator = bbs_server::serve(
            CoordinatorEngine::connect(topology, CoordinatorOptions::default())?,
            &tcp_bind(),
        )?;
        let addr = coordinator.tcp_addr().expect("tcp bound").to_string();
        Ok(Served::Scatter {
            shards,
            coordinator,
            addr,
        })
    }

    pub fn addr(&self) -> &str {
        match self {
            Served::Single { addr, .. } | Served::Scatter { addr, .. } => addr,
        }
    }

    /// The engines holding the rows (one, or one per shard).
    pub fn engines(&self) -> Vec<Arc<Engine>> {
        match self {
            Served::Single { handle, .. } => vec![Arc::clone(handle.engine())],
            Served::Scatter { shards, .. } => {
                shards.iter().map(|h| Arc::clone(h.engine())).collect()
            }
        }
    }

    pub fn coordinator(&self) -> Option<&Arc<CoordinatorEngine>> {
        match self {
            Served::Single { .. } => None,
            Served::Scatter { coordinator, .. } => Some(coordinator.engine()),
        }
    }

    pub fn shard_addrs(&self) -> Vec<String> {
        match self {
            Served::Single { addr, .. } => vec![addr.clone()],
            Served::Scatter { shards, .. } => shards
                .iter()
                .map(|h| h.tcp_addr().expect("tcp bound").to_string())
                .collect(),
        }
    }

    /// Drains every server (coordinator first) and waits for each to exit.
    pub fn stop(self) {
        match self {
            Served::Single { handle, .. } => shutdown(handle),
            Served::Scatter {
                shards,
                coordinator,
                ..
            } => {
                shutdown(coordinator);
                for h in shards {
                    shutdown(h);
                }
            }
        }
    }
}
