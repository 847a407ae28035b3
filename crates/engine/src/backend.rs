//! The backend abstraction one shard instantiates.
//!
//! The lifecycle surface — construction from a config, dynamic
//! reconfiguration, clock inspection, the quiesce fence, and WAL
//! attachment — lives in [`stm_api::TmLifecycle`], where
//! any backend crate can implement it without depending on the engine.
//! [`ShardBackend`] adds the one concern that *cannot* live there:
//! trace attachment (feature `record`), whose sink type comes from
//! `stm-check` — a crate that itself depends on `stm-api`, so putting
//! these methods on the api trait would create a dependency cycle.
//!
//! With `record` off, `ShardBackend` is an empty extension trait and
//! [`crate::ShardedEngine`] is effectively generic over plain
//! [`stm_api::TmLifecycle`] backends.

use stm_api::TmLifecycle;

/// A TM backend a [`crate::ShardedEngine`] shard can host: the full
/// [`TmLifecycle`] surface plus per-instance trace attachment.
pub trait ShardBackend: TmLifecycle {
    /// This instance's hot-path telemetry instruments: the engine tags
    /// each shard's instance with its shard index at construction, and
    /// the metrics scrape path reads per-shard histograms through the
    /// same handle. Ungated — telemetry is compiled in by default and
    /// disabled at runtime (one Relaxed bool).
    fn shard_tx_metrics(&self) -> &stm_telemetry::TxMetrics;

    /// Project this instance's counters/histograms into a metrics frame
    /// (delegates to the backend's `MetricsSource` impl; on the trait so
    /// the engine can scrape per-shard without naming the backend type).
    fn shard_collect_metrics(&self, frame: &mut stm_telemetry::MetricsFrame);

    /// Attach an event-recording sink to this instance.
    #[cfg(feature = "record")]
    fn shard_attach_trace(&self, sink: &std::sync::Arc<stm_check::TraceSink>);

    /// Stop recording on this instance.
    #[cfg(feature = "record")]
    fn shard_detach_trace(&self);

    /// This instance's reconfigure epoch for recorded histories.
    #[cfg(feature = "record")]
    fn shard_record_epoch(&self) -> u64;
}

/// Both backends are protocols of one runtime, so one impl serves them.
impl<P: tinystm::Protocol> ShardBackend for tinystm::Runtime<P> {
    fn shard_tx_metrics(&self) -> &stm_telemetry::TxMetrics {
        self.telemetry()
    }

    fn shard_collect_metrics(&self, frame: &mut stm_telemetry::MetricsFrame) {
        stm_telemetry::MetricsSource::collect(self, frame)
    }

    #[cfg(feature = "record")]
    fn shard_attach_trace(&self, sink: &std::sync::Arc<stm_check::TraceSink>) {
        self.attach_trace(sink)
    }

    #[cfg(feature = "record")]
    fn shard_detach_trace(&self) {
        self.detach_trace()
    }

    #[cfg(feature = "record")]
    fn shard_record_epoch(&self) -> u64 {
        self.record_epoch()
    }
}
