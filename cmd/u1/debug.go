package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"time"

	"u1/internal/metrics"
)

// serveDebug serves the operator's view of a running back-end on addr, over
// HTTP on a mux of its own:
//
//   - /metrics: the registry snapshot, as flat `name value` lines, or as
//     JSON with ?format=json;
//   - /debug/pprof/: the runtime profiles;
//   - /healthz: "ok" while health returns nil; otherwise 503 Service
//     Unavailable with health's error, one line per cause (a fenced
//     metadata shard refuses every write until it recovers).
//
// It returns the bound address and the function that stops it.
func serveDebug(addr string, reg *metrics.Registry, health func() error) (net.Addr, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("-debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(snap) //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeFlat(w, snap)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if err := health(); err != nil {
			http.Error(w, "unhealthy\n"+err.Error(), http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n") //nolint:errcheck
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // http.ErrServerClosed once stopped
		close(served)
	}()
	return ln.Addr(), func() error {
		err := srv.Close()
		<-served
		return err
	}, nil
}

// writeFlat writes a snapshot one `name value` line per series, sorted by
// name; a histogram contributes name.count, .sum, .mean, .p50, .p95 and .p99.
func writeFlat(w io.Writer, snap metrics.Snapshot) {
	var lines []string
	for name, v := range snap.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range snap.Gauges {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, h := range snap.Histograms {
		lines = append(lines,
			fmt.Sprintf("%s.count %d", name, h.Count), fmt.Sprintf("%s.sum %g", name, h.Sum),
			fmt.Sprintf("%s.mean %g", name, h.Mean), fmt.Sprintf("%s.p50 %g", name, h.P50),
			fmt.Sprintf("%s.p95 %g", name, h.P95), fmt.Sprintf("%s.p99 %g", name, h.P99))
	}
	slices.Sort(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
