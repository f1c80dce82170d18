package main

// metricDef names one metric the benchmark emits. BENCHMARK.json holds
// the same names and units (a test keeps the two in step) plus the
// direction and, for end-to-end metrics, the regression bound; moves is
// the written-down prediction of which end-to-end metric a per-layer
// metric should move, and on which workload.
type metricDef struct {
	name, unit string
	moves      string
}

// Host time and simulated time are never mixed: every unit of time below
// is host time unless the definition says "simulated".
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "sim_cycles_per_s", unit: "1/s"},
	{name: "points_per_s", unit: "1/s"},
	{name: "result_p50_us", unit: "us"},
	{name: "allocs_per_run", unit: "count"},
	{name: "alloc_mb_per_job", unit: "MB"},
}

// derived reports whether an end-to-end metric, on that workload, is
// arithmetic on walls that other end-to-end metrics already report. Every
// workload has to emit every end-to-end metric (see README), so on a
// simulated machine points_per_s is 1/(set-up + run + encode) and
// result_p50_us is run + encode, and on svc-sweep sim_cycles_per_s is
// points_per_s times the cycles of a point: a regression there is the same
// regression, not a second one.
func derived(workload, metric string) bool {
	if workload == "svc-sweep" {
		return metric == "sim_cycles_per_s"
	}
	return metric == "points_per_s" || metric == "result_p50_us"
}

var perLayer = []metricDef{
	{"workload.self_ns", "ns", "sim_cycles_per_s on gap-bfs-4c (one call per instruction); ~0 on sat-seq-8c (64-wide batches); setup_s on prewarmed workloads"},
	{"workload.instrs", "count", "work done by workload.self_ns"},
	{"workload.calls", "count", "batching: instrs/calls is the batch width"},

	{"cpu.self_ns", "ns", "sim_cycles_per_s on sat-seq-8c (24 CPUCycle calls per memory cycle)"},
	{"cpu.cycles", "count", "work done by cpu.self_ns"},
	{"cpu.retired", "count", "simulated; must not move with a host-speed change"},
	{"cpu.dram_loads", "count", "simulated; must not move with a host-speed change"},
	{"cpu.ipc", "1/cycle", "simulated; must not move with a host-speed change"},
	{"cpu.ff_ns", "ns", "sim_cycles_per_s on lowutil-4c"},
	{"cpu.unattributed_cycles", "count", "simulated; stall cycles in the cycle stacks' totals that no component accounts for (0 when the identity holds)"},

	{"cache.self_ns", "ns", "sim_cycles_per_s on sat-seq-8c (hit path) and rw-random-4c (miss/evict path)"},
	{"cache.accesses", "count", "work done by cache.self_ns"},
	{"cache.l1_hit_ratio", "ratio", "simulated"},
	{"cache.l2_hit_ratio", "ratio", "simulated"},
	{"cache.llc_hit_ratio", "ratio", "simulated"},
	{"cache.mem_reads", "count", "simulated; traffic handed to memctrl"},
	{"cache.mem_writes", "count", "simulated; traffic handed to memctrl"},
	{"cache.mshr_merges", "count", "simulated"},
	{"cache.retries", "count", "wasted work: MemPort refusals retried"},
	{"cache.warm_ns", "ns", "setup_s on the three prewarmed workloads; none on lowutil-4c, gap-bfs-4c"},

	{"memctrl.self_ns", "ns", "sim_cycles_per_s on rw-random-4c and hbm2-seq-4c; smaller on sat-seq-8c; none on lowutil-4c"},
	{"memctrl.ticks", "count", "work done by memctrl.self_ns"},
	{"memctrl.enqueued", "count", "work done by memctrl.self_ns"},
	{"memctrl.refused", "count", "wasted work: enqueues refused by a full queue"},
	{"memctrl.page_hit_ratio", "ratio", "simulated"},
	{"memctrl.read_queue_avg", "count", "simulated; scan length of the scheduler"},
	{"memctrl.write_drains", "count", "simulated; rw-random-4c only"},
	{"memctrl.tick_sat_ns", "ns", "sim_cycles_per_s on rw-random-4c, hbm2-seq-4c, sat-seq-8c"},

	{"dram.act", "count", "simulated; commands per cycle set the dram share of memctrl.self_ns"},
	{"dram.rd", "count", "simulated"},
	{"dram.wr", "count", "simulated"},
	{"dram.ref", "count", "simulated"},
	{"dram.issue_ns", "ns", "split of memctrl.self_ns; rw-random-4c most (most commands per cycle)"},
	{"dram.verify_ns", "ns", "split of memctrl.self_ns; every sim.New runs the verifier"},

	{"stacks.account_ns", "ns", "split of memctrl.self_ns on every saturated workload: the per-cycle price of the paper's mechanism"},
	{"stacks.addread_ns", "ns", "split of memctrl.self_ns, per completed read"},
	{"stacks.bw_util", "ratio", "simulated"},
	{"stacks.lat_avg_ns", "ns", "simulated read latency"},

	{"sched.event_ns", "ns", "sim_cycles_per_s on lowutil-4c"},
	{"addrmap.decode_ns", "ns", "sim_cycles_per_s on hbm2-seq-4c (routing per request)"},

	{"sim.run_ns_per_cycle", "ns", "1e9 / sim_cycles_per_s, measured in the traced invocation"},
	{"sim.ref_ns_per_cycle", "ns", "the benchmark-owned per-cycle loop, untraced"},
	{"sim.fast_gain", "ratio", "what the wheel/sprint/skip machinery buys: large on lowutil-4c, ~1 when saturated"},
	{"sim.assemble_s", "s", "setup_s (sim.New with prewarm 0)"},
	{"sim.prewarm_s", "s", "setup_s on the prewarmed workloads"},
	{"graph.build_s", "s", "setup_s on gap-bfs-4c"},
	{"gap.prepare_s", "s", "setup_s on gap-bfs-4c"},
	{"loop.self_ns", "ns", "residue of the benchmark's own loop; bounds what a loop rewrite can save"},

	{"trace.match", "bool", "1 when the traced machine equals the sim run; 0 marks the layer shares invalid"},
	{"trace.overhead_ratio", "ratio", "traced / untraced wall of the same loop"},
	{"trace.timer_ns", "ns", "calibrated cost of one span"},
	{"trace.sample_period", "count", "1 of every N memory cycles is traced"},
	{"trace.coverage", "ratio", "sum of self times / traced wall"},

	{"client.submit_us", "us", "result_p50_us on svc-sweep"},
	{"service.post_jobs_us", "us", "result_p50_us on svc-sweep (server side of client.submit_us)"},
	{"service.get_stacks_us", "us", "result_p50_us on svc-sweep"},
	{"service.post_sweeps_us", "us", "points_per_s on svc-sweep"},
	{"service.queue_wait_ms", "ms", "points_per_s on svc-sweep"},
	{"service.sim_wall_ms", "ms", "points_per_s on svc-sweep; follows sim_cycles_per_s of the mix points"},
	{"service.worker_util", "ratio", "below ~0.9, queueing/encoding/streaming own points_per_s"},
	{"service.stream_first_line_ms", "ms", "points_per_s on svc-sweep"},
	{"service.cache_hit_ratio", "ratio", "useful outcomes / attempts of the result cache"},
	{"service.rejected", "count", "failed operations: queue-full 429s"},
	{"client.retries", "count", "retried operations"},
	{"exp.decode_us", "us", "result_p50_us on svc-sweep"},
	{"exp.hash_us", "us", "result_p50_us on svc-sweep"},
	{"exp.encode_us", "us", "points_per_s on svc-sweep (encode stage of every cold job); negligible in result_p50_us on the sim workloads"},
	{"service.cache_get_ns", "ns", "result_p50_us on svc-sweep"},
	{"service.hit_p95_us", "us", "tail of result_p50_us; does not repeat within a tenth, so not gated"},
	{"service.hit_max_us", "us", "tail of result_p50_us; not gated"},
	{"service.journal_extra_us", "us", "what a DataDir (fsync per record) adds to a cached round trip; disk noise, so not gated"},
}
