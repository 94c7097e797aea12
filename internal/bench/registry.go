package bench

import "io"

// Experiment is one registered experiment runner.
type Experiment struct {
	ID   string
	Name string
	Run  func(seed int64) *Table
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"E1", "completion vs reward", E1CompletionVsReward},
		{"E2", "turnaround vs batch size", E2TurnaroundVsBatch},
		{"E3", "worker affinity", E3WorkerAffinity},
		{"E4", "majority-vote quality", E4MajorityVote},
		{"E5", "CrowdProbe directory fill", E5CrowdProbe},
		{"E6", "CrowdJoin batching", E6CrowdJoin},
		{"E7", "CROWDEQUAL entity resolution", E7EntityResolution},
		{"E8", "CROWDORDER ranking quality", E8CrowdOrder},
		{"E9", "UI generation (Figs. 2-3)", E9UIGeneration},
		{"E10", "optimizer rule ablation", E10OptimizerRules},
		{"E11", "boundedness verdicts", E11Boundedness},
		{"E12", "mobile vs AMT", E12MobileVsAMT},
		{"E13", "diurnal responsiveness (extension)", E13Diurnal},
		{"E14", "weighted-vote quality control (extension)", E14VotePolicy},
		{"E15", "async speedup vs in-flight window (extension)", E15AsyncScheduler},
		{"E16", "concurrent sessions: shared-cache crowd cost (extension)", E16ConcurrentSessions},
		{"E17", "cost-based optimizer vs flat heuristic (extension)", E17CostBasedOptimizer},
		{"E23", "crash recovery: durable jobs + admission (extension)", E23CrashRecovery},
		{"E24", "hybrid model/human answering (extension)", E24HybridAnswering},
	}
}

// RunAll executes every experiment and prints its table.
func RunAll(w io.Writer, seed int64) {
	for _, e := range All() {
		e.Run(seed).Fprint(w)
	}
}
