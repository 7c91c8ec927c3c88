package main

import (
	"fmt"
	"os"
)

// statsSnap is the public /stats counters of every process at one time.
type statsSnap struct {
	nodes  []map[string]any
	router map[string]any
	reads  int64
}

func (r *runner) snapStats(d *deploy) statsSnap {
	s := statsSnap{reads: r.reads.Load()}
	for _, n := range d.nodes {
		m, err := r.e.stats(n.url())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: /stats:", err)
		}
		s.nodes = append(s.nodes, m)
	}
	if d.router != nil {
		s.router, _ = r.e.stats(d.router.url())
	}
	return s
}

// delta sums a node counter's growth between two snapshots; ok is false
// when any node does not report the field.
func delta(before, after statsSnap, path ...string) (float64, bool) {
	var sum float64
	for i := range after.nodes {
		a, ok1 := field(after.nodes[i], path...)
		b, ok2 := field(before.nodes[i], path...)
		if !ok1 || !ok2 {
			return 0, false
		}
		sum += a - b
	}
	return sum, true
}

// layerMetrics fills the traced run's per-layer metrics. Every figure
// is per operation of its kind (median over the traced operations), or
// per read request for the /stats counters: the workload's deployment
// before and after its loop, and the probe cluster before and after
// the traced probes. A layer the workload does not exercise reads 0; a
// /stats field the program no longer reports is absent from the result.
func (r *runner) layerMetrics(out metrics, native string, before, after, cbefore, cafter statsSnap) {
	ops := foldOps(r.tr.snapshot())
	byKind := map[string][]*opTimes{}
	r.kinds.Range(func(k, v any) bool {
		if o := ops[k.(int64)]; o != nil {
			byKind[v.(string)] = append(byKind[v.(string)], o)
		}
		return true
	})
	med := func(kind string, f func(o *opTimes) (float64, bool)) float64 {
		var xs []float64
		for _, o := range byKind[kind] {
			if v, ok := f(o); ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	const nsPerMS, nsPerUS = 1e6, 1e3
	self := func(kind, name string, scale float64) float64 {
		return med(kind, func(o *opTimes) (float64, bool) {
			return float64(o.self[name]) / scale, o.calls[name] > 0
		})
	}
	// residual is a span's duration less the durations of the replayed
	// calls it is made of (those run apart from it), never below 0.
	residual := func(kind, whole string, parts []string, scale float64) float64 {
		return med(kind, func(o *opTimes) (float64, bool) {
			v := o.dur[whole]
			for _, p := range parts {
				v -= o.dur[p]
			}
			return float64(max(v, 0)) / scale, o.calls[whole] > 0
		})
	}
	vals := func(name string) float64 {
		r.rp.mu.Lock()
		defer r.rp.mu.Unlock()
		if xs := r.rp.vals[name]; len(xs) > 0 {
			return median(xs)
		}
		return 0
	}
	reads := float64(max(after.reads-before.reads, 1))
	counter := func(name, unit string, path ...string) {
		if v, ok := delta(before, after, path...); ok {
			out.set(name, v/reads, unit)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %s absent: /stats has no %v\n", name, path)
		}
	}

	// publish
	pubParts := []string{"cli.read_rows", "ledger.charge", "core.publish", "store.put"}
	for _, n := range []string{"cli.read_rows", "core.publish", "transform.forward", "transform.inverse",
		"privacy.inject", "matrix.prefixsum", "codec.encode", "store.put", "store.remove", "ledger.charge"} {
		out.set(n+"_ms", self("publish", n, nsPerMS), "ms")
	}
	out.set("cli.rows", vals("cli.rows"), "count")
	out.set("core.submatrices", vals("core.submatrices"), "count")
	out.set("codec.bytes_per_cell", vals("codec.bytes_per_cell"), "B")
	out.set("server.publish_self_ms", residual("publish", "server.publish", pubParts, nsPerMS), "ms")
	out.set("net.publish_ms", self("publish", "mirror.publish", nsPerMS), "ms")

	// analyst
	queryParts := []string{"store.get", "workload.spec_parse", "query.execute"}
	out.set("workload.spec_parse_ms", self("analyst", "workload.spec_parse", nsPerMS), "ms")
	out.set("query.execute_ms", self("analyst", "query.execute", nsPerMS), "ms")
	out.set("query.ttfa_ms", vals("query.ttfa_ms"), "ms")
	out.set("workload.answer_write_ms", self("analyst", "workload.answer_write", nsPerMS), "ms")
	out.set("workload.answer_bytes", vals("workload.answer_bytes"), "B")
	out.set("server.query_self_ms", residual("analyst", "server.query", queryParts, nsPerMS), "ms")
	out.set("net.query_ms", self("analyst", "mirror.query", nsPerMS), "ms")
	hits, ok1 := delta(before, after, "answer_cache_hits")
	misses, ok2 := delta(before, after, "answer_cache_misses")
	if ok1 && ok2 {
		out.set("query.cache_hit_ratio", hits/max(hits+misses, 1), "ratio")
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: query.cache_hit_ratio absent: /stats has no answer-cache counters")
	}
	counter("query.cache_evictions", "count", "answer_cache_evictions")

	// counts, routed through the probe cluster
	countParts := []string{"store.get", "query.parse", "query.count"}
	out.set("cluster.route_self_us", med("count", func(o *opTimes) (float64, bool) {
		return float64(max(o.dur["http.routed_describe"]-o.dur["http.direct_describe"], 0)) / nsPerUS, o.calls["http.direct_describe"] > 0
	}), "us")
	routerDelta := func(name string) (float64, bool) {
		a, ok1 := field(cafter.router, "router", name)
		b, ok2 := field(cbefore.router, "router", name)
		return a - b, ok1 && ok2
	}
	if v, ok := routerDelta("retries"); ok || cafter.router == nil {
		out.set("cluster.retries", v/float64(max(cafter.reads-cbefore.reads, 1)), "count")
	}
	if v, ok := routerDelta("replications"); ok || cafter.router == nil {
		out.set("cluster.replications", v/float64(max(len(r.get("routed_publishes")), 1)), "count")
	}
	out.set("cluster.replication_ms", medianOr0(r.get("cluster.replication_ms")), "ms")
	out.set("server.count_self_us", residual("count", "server.count", countParts, nsPerUS), "us")
	out.set("query.parse_us", self("count", "query.parse", nsPerUS), "us")
	out.set("query.count_us", self("count", "query.count", nsPerUS), "us")
	out.set("store.get_us", self("count", "store.get", nsPerUS), "us")
	out.set("codec.decode_mapped_us", self("count", "codec.decode_mapped", nsPerUS), "us")
	counter("store.reload_ratio", "ratio", "reloads")
	counter("store.mmap_hits", "count", "mmap_hits")
	counter("store.rebuilds", "count", "rebuilds")
	counter("store.evictions", "count", "evictions")

	// restart
	out.set("store.recover_ms", self("restart", "store.recover", nsPerMS), "ms")
	out.set("store.recovered_releases", vals("store.recovered_releases"), "count")
	out.set("codec.decode_mapped_ms", self("restart", "codec.decode_mapped", nsPerMS), "ms")
	out.set("ledger.open_ms", self("restart", "ledger.open", nsPerMS), "ms")
	out.set("process.start_ms", residual("restart", "op", []string{"store.recover", "ledger.open"}, nsPerMS), "ms")

	// Coverage: the share of the traced end-to-end time that measured
	// layer spans and residuals account for; the rest is the server's
	// (or, for restart, the process's) own time.
	cover := map[string]func(o *opTimes) (float64, bool){
		"publish": func(o *opTimes) (float64, bool) {
			return o.coverage("op", append(pubParts, "store.remove", "mirror.publish"), 0), true
		},
		"analyst": func(o *opTimes) (float64, bool) {
			return o.coverage("op", append(queryParts, "workload.answer_write", "mirror.query"), 0), true
		},
		"count": func(o *opTimes) (float64, bool) {
			route := int64(0)
			if o.calls["http.direct_describe"] > 0 {
				route = max(o.dur["http.routed_describe"]-o.dur["http.direct_describe"], 0)
			}
			return o.coverage("op", append(countParts, "mirror.count"), route), true
		},
		"restart": func(o *opTimes) (float64, bool) {
			return o.coverage("op", []string{"store.recover", "ledger.open"}, 0), true
		},
	}
	out.set("trace.coverage", med(native, cover[native]), "ratio")
	// Overhead: traced operations against the untraced ones interleaved
	// with them in the same loop.
	untraced := map[string]struct {
		sample string
		scale  float64
	}{
		"publish": {"publish_ttfq_ms", nsPerMS}, "analyst": {"workload_ms", nsPerMS},
		"count": {"count_us", nsPerUS}, "restart": {"restart_ttfq_ms", nsPerMS},
	}[native]
	traced := med(native, func(o *opTimes) (float64, bool) {
		return float64(o.dur["op"]-o.dur["http.delete"]) / untraced.scale, true
	})
	if base := medianOr0(r.get(untraced.sample)); base > 0 {
		out.set("trace.overhead_ratio", traced/base, "ratio")
	} else {
		out.set("trace.overhead_ratio", 0, "ratio")
	}
}

func medianOr0(xs []float64) float64 { return percentileOr0(xs, 50) }

func percentileOr0(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}
