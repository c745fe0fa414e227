package metrics

// FaultCounters aggregates fault-injection and recovery activity across
// every layer of the stack. One instance lives on the cluster (see
// cluster.Cluster.Faults); the HDFS, YARN and MapReduce layers all
// write to it through their cluster pointer, so a single sheet shows
// what was injected and what the recovery machinery did about it.
type FaultCounters struct {
	// Cluster layer.
	NodesDowned   int
	NodesRestored int

	// YARN layer.
	ContainersLost     int // live containers reclaimed from lost nodes
	NodesBlacklisted   int
	NodesUnblacklisted int

	// MapReduce layer.
	AttemptsKilledNodeLoss int // running attempts requeued after a crash
	TaskFailuresInjected   int // attempts killed by the fault injector
	FetchFailures          int // shuffle fetches that failed and retried
	MapsReExecuted         int // completed maps re-run after output loss

	// HDFS layer.
	ReplicasLost       int
	BlocksReReplicated int
	ReadFailovers      int // block reads restarted from another replica
	WriteRestarts      int // replica pipelines rebuilt after a crash
}
