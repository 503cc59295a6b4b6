use mwsj_mapreduce::{DfsError, JobError};

/// A distributed join run that failed.
///
/// The join algorithms drive the engine through its fallible
/// [`run`](mwsj_mapreduce::Engine::run) path, so a task exhausting its
/// attempt budget (or a DFS dataset staying unreadable between rounds)
/// surfaces here instead of aborting the process.
/// So does a run the caller described wrongly.
/// [`Cluster::run`](crate::Cluster::run) panics on these;
/// [`Cluster::submit`](crate::Cluster::submit) returns them.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinError {
    /// A map-reduce job failed: the error names the job, phase, task and
    /// attempt count.
    Job(JobError),
    /// An intermediate dataset could not be read back from the DFS between
    /// rounds.
    Dfs(DfsError),
    /// The run itself is malformed — a caller error, found before any job
    /// starts: binding count not matching the query's relation positions,
    /// a rectangle outside the cluster space, a store ingested on another
    /// grid, more than `u32::MAX` records bound in all,
    /// [`Algorithm::MapSide`](crate::Algorithm::MapSide) over
    /// in-memory bindings, or a nearest-neighbor join asked for `k = 0`.
    InvalidInput(String),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Job(e) => e.fmt(f),
            JoinError::Dfs(e) => e.fmt(f),
            JoinError::InvalidInput(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for JoinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JoinError::Job(e) => Some(e),
            JoinError::Dfs(e) => Some(e),
            JoinError::InvalidInput(_) => None,
        }
    }
}

impl From<JobError> for JoinError {
    fn from(e: JobError) -> Self {
        JoinError::Job(e)
    }
}

impl From<DfsError> for JoinError {
    fn from(e: DfsError) -> Self {
        JoinError::Dfs(e)
    }
}
