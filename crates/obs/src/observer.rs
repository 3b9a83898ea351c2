//! One handle on a storage stack's observability.

use crate::events::EventLog;
use crate::registry::Registry;
use crate::trace::Tracer;

/// A stack's metrics [`Registry`] plus an optional [`Tracer`] and an
/// optional [`EventLog`]. A stack holds exactly one; every layer reads
/// through it, so attaching one reaches the engine, the cluster and any
/// service worker. Clones share the same instruments, spans and events.
///
/// The default observer has a fresh registry and no tracer or event log,
/// which keeps every tracing and event site a single `Option` branch.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    registry: Registry,
    tracer: Option<Tracer>,
    events: Option<EventLog>,
}

impl Observer {
    /// Adds a fresh [`Tracer`], its `trace.slow_ops` counter bound to this
    /// observer's registry, and a fresh [`EventLog`].
    pub fn traced(mut self) -> Self {
        let tracer = Tracer::new();
        tracer.attach_registry(&self.registry);
        self.tracer = Some(tracer);
        self.events = Some(EventLog::new());
        self
    }

    /// The metrics registry.
    #[inline]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The tracer, if tracing is on.
    #[inline]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The event log, if events are on.
    #[inline]
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }
}
