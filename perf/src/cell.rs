//! The durable serving cell every workload is built from, composed
//! from the same public parts `apex-cli listen` and `bench netload`
//! use, but with the handles kept so the lifecycle steps (refresh,
//! checkpoint, crash image, recovery) can be timed from outside.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apex::wal::snapshot_path;
use apex::{
    recover, write_checkpoint, Apex, CrashPlan, DurabilityConfig, IndexCell, RecoverOptions,
    Recovered, RefreshPolicy, Refresher, Wal, WorkloadMonitor,
};
use apex_net::Engine;
use apex_storage::DataTable;
use xmlgraph::XmlGraph;

/// Monitor window, in queries.
pub const WINDOW: usize = 1000;
/// The paper's default support threshold for the serving experiments.
pub const MIN_SUP: f64 = 0.005;
/// The flush policy of every workload: fsync after 32 appended
/// records, checkpoints only when the driver asks, two snapshots kept.
pub const DURABILITY: DurabilityConfig = DurabilityConfig {
    group_commit: 32,
    checkpoint_every: 0,
    retain: 2,
};

pub type Failure = Box<dyn std::error::Error + Send + Sync>;

pub struct Cell {
    pub g: Arc<XmlGraph>,
    pub table: Arc<DataTable>,
    pub index: Arc<IndexCell>,
    pub monitor: Arc<Mutex<WorkloadMonitor>>,
    pub wal: Arc<Wal>,
    pub refresher: Arc<Refresher>,
    pub dir: PathBuf,
    /// Sizes of every snapshot this cell committed (pruning removes the
    /// files, so they are summed as they are written).
    pub snapshot_bytes: u64,
}

impl Cell {
    pub fn compose(
        g: Arc<XmlGraph>,
        table: Arc<DataTable>,
        apex0: Apex,
        dir: PathBuf,
    ) -> io::Result<Cell> {
        std::fs::create_dir_all(&dir)?;
        let index = Arc::new(IndexCell::new(apex0));
        let wal = Arc::new(Wal::open(&dir, DURABILITY, CrashPlan::none())?);
        let mut monitor = WorkloadMonitor::new(WINDOW, MIN_SUP, RefreshPolicy::Manual);
        monitor.attach_wal(Arc::clone(&wal));
        let monitor = Arc::new(Mutex::new(monitor));
        let refresher = Arc::new(Refresher::spawn_durable(
            Arc::clone(&g),
            Arc::clone(&index),
            Arc::clone(&monitor),
            Arc::clone(&wal),
        )?);
        Ok(Cell {
            g,
            table,
            index,
            monitor,
            wal,
            refresher,
            dir,
            snapshot_bytes: 0,
        })
    }

    /// An engine over this cell. The refresher is shared: draining a
    /// server must not stop it, the cell does that last.
    pub fn engine(&self) -> Engine {
        Engine::new(
            Arc::clone(&self.g),
            Arc::clone(&self.table),
            Arc::clone(&self.index),
            Arc::clone(&self.monitor),
        )
        .with_shared_refresher(Arc::clone(&self.refresher))
    }

    /// One refresh cycle: drain the window, refine a private copy,
    /// publish the next generation.
    pub fn adapt(&self) -> Duration {
        let t = Instant::now();
        self.refresher.request_refresh();
        self.refresher.wait_idle();
        t.elapsed()
    }

    /// One verified snapshot checkpoint of the published generation.
    pub fn checkpoint(&mut self) -> Result<Duration, Failure> {
        let t = Instant::now();
        let seq = write_checkpoint(&self.index, &self.monitor, &self.wal)?;
        let wall = t.elapsed();
        self.snapshot_bytes += std::fs::metadata(snapshot_path(&self.dir, seq))?.len();
        Ok(wall)
    }

    /// Bytes this cell made durable: log frames plus snapshots.
    pub fn durable_bytes(&self) -> u64 {
        self.wal.stats().bytes_appended + self.snapshot_bytes
    }

    /// What a crash right now would leave on disk: flushes the log and
    /// copies the directory to `to`. Returns the writer's accounting at
    /// that instant, for the balance check against the recovery report.
    pub fn crash_image(&self, to: &Path) -> Result<apex::Stats, Failure> {
        self.wal.sync()?;
        let stats = self.wal.stats();
        std::fs::create_dir_all(to)?;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                std::fs::copy(entry.path(), to.join(entry.file_name()))?;
            }
        }
        Ok(stats)
    }

    /// Stops the refresher (which writes its shutdown checkpoint) and
    /// removes the cell's directory. Every engine clone must be gone.
    pub fn shutdown(self) -> Result<(), Failure> {
        let Cell { refresher, dir, .. } = self;
        match Arc::try_unwrap(refresher) {
            Ok(r) => {
                r.shutdown();
            }
            Err(_) => return Err("an engine still holds the refresher at shutdown".into()),
        }
        std::fs::remove_dir_all(dir)?;
        Ok(())
    }
}

/// The options a restart of this cell would recover with.
pub fn recover_options() -> RecoverOptions {
    RecoverOptions {
        capacity: WINDOW,
        min_sup: MIN_SUP,
        policy: RefreshPolicy::Manual,
        use_snapshots: true,
        repair: false,
        plan: CrashPlan::none(),
    }
}

pub fn recover_timed(dir: &Path, g: &XmlGraph) -> Result<(Duration, Recovered), Failure> {
    let t = Instant::now();
    let r = recover(dir, g, &recover_options())?;
    Ok((t.elapsed(), r))
}
