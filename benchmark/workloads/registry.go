package workloads

import (
	"math"
	"strings"

	"u1/internal/metrics"
	"u1/internal/server"
)

// regDelta is the change of the cluster's registry over the measured phase:
// everything the program already counts, read from outside.
type regDelta struct {
	before, after metrics.Snapshot
}

func (d regDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// counters sums every counter named prefix+*+suffix.
func (d regDelta) counters(prefix, suffix string) float64 {
	var sum float64
	for name := range d.after.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			sum += d.counter(name)
		}
	}
	return sum
}

func (d regDelta) histCount(name string) float64 {
	return float64(d.after.Histograms[name].Count - d.before.Histograms[name].Count)
}

func (d regDelta) histSum(name string) float64 {
	return d.after.Histograms[name].Sum - d.before.Histograms[name].Sum
}

// hists sums count and sum over every histogram named prefix+*+suffix,
// skipping names that contain the exclude fragment (the per-class RPC
// histograms repeat the per-RPC ones).
func (d regDelta) hists(prefix, suffix, exclude string) (count, sum float64) {
	for name := range d.after.Histograms {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		if exclude != "" && strings.Contains(name, exclude) {
			continue
		}
		count += d.histCount(name)
		sum += d.histSum(name)
	}
	return count, sum
}

// requests is the API requests the servers completed in the measured phase.
func (d regDelta) requests() float64 {
	return d.counters(metrics.APIOpPrefix, ".count")
}

// errors is the API requests the servers answered with a status other than OK.
func (d regDelta) errors() float64 {
	return d.counters(metrics.APIOpPrefix, ".errors")
}

// registryLayers fills the per-layer counts (source C) every workload reads
// the same way, plus the raw counts the reconciliation multiplies with
// fixture costs.
func (r *Result) registryLayers(d regDelta, c *server.Cluster) {
	requests := d.requests()
	r.Layers["apiserver.requests"] = requests
	if requests > 0 {
		r.Layers["apiserver.err_share"] = d.errors() / requests
	}

	rpcCalls, _ := d.hists(metrics.RPCPrefix, ".seconds", metrics.RPCClassPrefix)
	if requests > 0 {
		r.Layers["rpc.calls_per_op"] = rpcCalls / requests
	}

	_, readHold := d.hists(metrics.ShardPrefix, ".read_hold.seconds", "")
	_, writeHold := d.hists(metrics.ShardPrefix, ".write_hold.seconds", "")
	r.Layers["metadata.read_hold_s"] = readHold
	r.Layers["metadata.write_hold_s"] = writeHold
	reads := d.counters(metrics.ShardPrefix, ".reads")
	writes := d.counters(metrics.ShardPrefix, ".writes")
	shardReads, shardWrites := c.Store.ShardLoads()
	loads := make([]float64, len(shardReads))
	for i := range loads {
		loads[i] = float64(shardReads[i] + shardWrites[i])
	}
	r.Layers["metadata.shard_cv"] = coefficientOfVariation(loads)

	r.Layers["blob.put_s"] = d.histSum("blob.put.seconds")
	r.Layers["blob.get_s"] = d.histSum("blob.get.seconds")
	uploads := d.counter(metrics.APIOpPrefix + "Upload.count")
	jobs := d.histCount(metrics.RPCPrefix + "dal.make_uploadjob.seconds")
	if uploads > 0 {
		r.Layers["blob.dedup_hit_share"] = math.Max(0, 1-jobs/uploads)
	}

	published := d.counter("notify.published")
	r.Layers["notify.published"] = published
	r.Layers["notify.delivered"] = d.counter("notify.delivered")
	if sent := d.counter("notify.delivered") + d.counter("notify.dropped"); sent > 0 {
		r.Layers["notify.dropped_share"] = d.counter("notify.dropped") / sent
	}

	r.Layers["gateway.sessions_placed"] = d.counter("gateway.sessions.placed")
	r.Layers["wal.appends"] = d.counter(metrics.WALPrefix + "appends")
	r.Layers["repl.published"] = d.counter(metrics.ReplicationPrefix + "published")
	r.Layers["repl.applied"] = d.counter(metrics.ReplicationPrefix + "applied")

	// The reconciliation multiplies these with fixtures that measure a
	// layer's own cost and nothing below it, so the products add up. The
	// fixtures that run the stack below them (client.sync_ns,
	// client.connect_ns, apiserver.session_ns) are left out; the client's own
	// work therefore lands in the unattributed remainder.
	r.Counts["apiserver.pipeline_ns"] = requests
	r.Counts["rpc.overhead_ns"] = rpcCalls
	r.Counts["metadata.read_ns"] = reads
	r.Counts["metadata.write_ns"] = writes
	r.Counts["notify.publish_ns"] = published
	r.Counts["blob.put_sized_ns"] = d.histCount("blob.put.seconds")
	// Both the fixture and sim-durable journal under the async policy.
	r.Counts["metadata.journal_ns_per_mutation"] = r.Layers["wal.appends"]
}

func coefficientOfVariation(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(v))) / mean
}
