package main

// This file is the benchmark's vocabulary: the workload names, the
// end-to-end metrics with their regression bounds and the per-layer
// metrics. BENCHMARK.json at the repo root repeats these lists for the
// driver; bench_smoke_test.go holds the two equal.

// runSeconds is how long one run measures; BENCHMARK.json's
// run_seconds.
const runSeconds = 10

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"frame_adapt", "paper loop on one camera: Small R-18 infer then one LD-BN-ADAPT step per frame; GEMMs above the parallel gate, serve/govern/shard idle"},
	{"serve_board", "one board stepping 4 streams in 100 ms epochs on Tiny: batched inference dominates, kernels stay below the gate, serve-layer overhead at its largest share"},
	{"control_plane", "plan-only: probes, governor decides, stream moves, checkpoints and placement for 1024 streams with no model compute, so a kernel change predicts no move"},
	{"fleet_chaos", "whole system: 4 governed boards, migration, consolidation, checkpoints and a kill+join, the only workload where every layer runs together"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload prints
// every one of them; README.md says what each means on each workload.
// Bound is the share of the parent's median a metric may worsen by.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"frame_ms_p50", "ms", "lower", 0.25},
	{"ctl_us_per_stream_epoch", "us", "lower", 0.25},
	{"allocs_per_frame", "count", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"deadline_hit_rate", "share", "higher", 0.05},
	{"energy_j_per_frame", "J", "lower", 0.05},
	{"online_accuracy", "share", "higher", 0.25},
	{"served_share", "share", "higher", 0.05},
}

func layer(unit, better string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer lists the single-layer metrics, grouped by module. A traced
// run prints all of them; one the workload does not measure reads 0.
var perLayer = concat(
	layer("share", "lower", "bench.trace_overhead_share"),

	layer("us", "lower", "par.dispatch_us"),
	layer("count", "higher", "par.width"),
	layer("ratio", "higher", "par.matmul_scale"),

	layer("count", "lower", "tensor.macs_per_frame"),
	layer("GMAC/s", "higher", "tensor.matmul_gmacs", "tensor.matmul_ta_gmacs", "tensor.matmul_tb_gmacs", "tensor.int8_matmul_gmacs"),
	layer("ms", "lower", "tensor.gemm_fwd_ms_per_frame", "tensor.gemm_bwd_ms_per_frame", "tensor.im2col_ms_per_frame", "tensor.col2im_ms_per_frame"),
	layer("GB/s", "higher", "tensor.lower_gbs"),
	layer("us", "lower", "tensor.quantize_us_per_frame", "tensor.softmax_us"),

	layer("ms", "lower", "nn.conv_fwd_ms_per_frame", "nn.conv_int8_ms_per_frame", "nn.conv_train_ms_per_frame",
		"nn.bn_fwd_ms_per_frame", "nn.bn_train_ms_per_frame", "nn.linear_fwd_ms_per_frame", "nn.linear_train_ms_per_frame"),
	layer("us", "lower", "nn.entropy_loss_us"),
	layer("ratio", "lower", "nn.conv_over_gemm"),
	layer("ratio", "higher", "nn.shadow_cover"),

	layer("ms", "lower", "resnet.backbone_fwd_ms"),
	layer("share", "lower", "resnet.backbone_share"),

	layer("ms", "lower", "ufld.infer_ms_p50", "ufld.infer_ms_p95"),
	layer("us", "lower", "ufld.images_us", "ufld.decode_us"),
	layer("ms", "lower", "ufld.infer_hot_ms_p50", "ufld.infer_b4_ms_per_frame", "ufld.infer_b8_ms_per_frame", "ufld.infer_int8_ms_p50"),
	layer("GMAC/s", "higher", "ufld.infer_gmacs"),
	layer("count", "lower", "ufld.infer_allocs"),

	layer("ms", "lower", "adapt.step_ms_p50", "adapt.step_ms_p95", "adapt.step_b4_ms_p50"),
	layer("count", "lower", "adapt.step_allocs"),
	layer("share", "lower", "adapt.share"),
	layer("share", "higher", "adapt.frozen_accuracy", "adapt.final_accuracy"),

	layer("ms", "lower", "carlane.render_ms_per_frame"),
	layer("us", "lower", "stream.score_us"),
	layer("ms", "lower", "orin.frame_ms_30w"),

	layer("ms", "lower", "serve.epoch_ms_p50", "serve.epoch_ms_p95"),
	layer("ratio", "lower", "serve.realtime_factor"),
	layer("ms", "lower", "serve.ms_per_frame", "serve.oneshot_ms_per_frame"),
	layer("ratio", "lower", "serve.barrier_ratio", "serve.bare_ratio"),
	layer("count", "higher", "serve.mean_batch"),
	layer("count", "lower", "serve.batches", "serve.adapt_steps", "serve.allocs_per_epoch"),
	layer("KB", "lower", "serve.heap_growth_kb_per_epoch"),
	layer("ms", "lower", "serve.finish_ms"),
	layer("share", "higher", "serve.util_mean"),
	layer("ms", "lower", "serve.queue_ms_mean", "serve.priced_p99_ms", "serve.new_session_ms"),
	layer("us", "lower", "serve.probe_us"),
	layer("ns", "lower", "serve.probe_ns_per_arrival"),
	layer("ms", "lower", "serve.detach_ms", "serve.attach_ms"),
	layer("us", "lower", "serve.checkpoint_us", "serve.ckpt_encode_us", "serve.ckpt_decode_us"),
	layer("B", "lower", "serve.ckpt_bytes"),

	layer("us", "lower", "govern.rule_decide_us"),
	layer("ms", "lower", "govern.oracle_decide_ms", "govern.oracle_self_ms"),
	layer("count", "lower", "govern.oracle_probes", "govern.ctl_changes", "govern.int8_epochs"),

	layer("ns", "lower", "forecast.observe_ns"),
	layer("count", "lower", "forecast.mae"),

	layer("s", "lower", "shard.run_s"),
	layer("1/s", "higher", "shard.steps_per_s"),
	layer("share", "lower", "shard.coord_share"),
	layer("ms", "lower", "shard.coord_ms_per_epoch"),
	layer("count", "lower", "shard.migrations", "shard.checkpoints", "shard.ckpt_errors", "shard.lost_frames", "shard.events"),
	layer("ms", "lower", "shard.stranded_ms", "shard.forecast_loads_ms"),
	layer("us", "lower", "shard.place_ll_us", "shard.place_binpack_us"),

	layer("share", "lower", "obs.on_overhead_share"),
	layer("count", "lower", "obs.events"),
	layer("ms", "lower", "obs.export_ms"),
	layer("B", "lower", "obs.trace_bytes"),
	layer("count", "higher", "obs.bytewise_repeat"),
)

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
