//! VM descriptions and trace events.

/// The baseline server generation a VM was deployed on in the trace
/// (pre-defined per VM in the paper's production traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerGeneration {
    /// AMD Rome era.
    Gen1,
    /// AMD Milan era.
    Gen2,
    /// AMD Genoa era (the paper's primary baseline).
    Gen3,
}

impl ServerGeneration {
    /// All generations, oldest first.
    pub fn all() -> [ServerGeneration; 3] {
        [ServerGeneration::Gen1, ServerGeneration::Gen2, ServerGeneration::Gen3]
    }

    /// Label as the paper writes it.
    pub fn label(&self) -> &'static str {
        match self {
            ServerGeneration::Gen1 => "Gen1",
            ServerGeneration::Gen2 => "Gen2",
            ServerGeneration::Gen3 => "Gen3",
        }
    }
}

impl std::fmt::Display for ServerGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One VM in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmSpec {
    /// Unique id within the trace.
    pub id: u64,
    /// Requested virtual cores.
    pub cores: u32,
    /// Requested memory in GB.
    pub mem_gb: f64,
    /// Index into the application catalog (assigned by sampling the
    /// fleet mix, as §V describes for opaque production VMs).
    pub app_index: u16,
    /// Baseline generation pre-defined in the trace.
    pub generation: ServerGeneration,
    /// Whether this is a long-living full-node VM that requires a
    /// dedicated baseline server.
    pub full_node: bool,
    /// Maximum fraction of its allocated memory the VM touches over its
    /// lifetime (reported per-VM in the paper's traces; drives Fig. 10).
    pub max_mem_util: f64,
    /// Average CPU utilization of the VM's allocated cores (§II: 75 %
    /// of Azure VMs exhibit less than 25 % CPU utilization).
    pub avg_cpu_util: f64,
}

impl VmSpec {
    /// Whether the VM's shape is sane (positive cores/memory,
    /// utilization within [0, 1]).
    pub fn is_valid(&self) -> bool {
        self.cores > 0
            && self.mem_gb.is_finite()
            && self.mem_gb > 0.0
            && (0.0..=1.0).contains(&self.max_mem_util)
            && (0.0..=1.0).contains(&self.avg_cpu_util)
    }
}

/// Kind of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmEventKind {
    /// The VM arrives and requests placement.
    Arrival,
    /// The VM departs and frees its resources.
    Departure,
}

/// One timestamped arrival or departure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmEvent {
    /// Simulation time in seconds.
    pub time_s: f64,
    /// Arrival or departure.
    pub kind: VmEventKind,
    /// The VM this event refers to.
    pub vm_id: u64,
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn vm_validity() {
        let vm = VmSpec {
            id: 1,
            cores: 8,
            mem_gb: 32.0,
            app_index: 0,
            generation: ServerGeneration::Gen3,
            full_node: false,
            max_mem_util: 0.6,
            avg_cpu_util: 0.2,
        };
        assert!(vm.is_valid());
        assert!(!VmSpec { cores: 0, ..vm }.is_valid());
        assert!(!VmSpec { mem_gb: 0.0, ..vm }.is_valid());
        assert!(!VmSpec { max_mem_util: 1.2, ..vm }.is_valid());
        assert!(!VmSpec { avg_cpu_util: -0.1, ..vm }.is_valid());
    }

    #[test]
    fn generation_ordering() {
        assert!(ServerGeneration::Gen1 < ServerGeneration::Gen3);
        assert_eq!(ServerGeneration::all().len(), 3);
    }
}
