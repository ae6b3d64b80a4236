package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"u1/internal/client"
	"u1/internal/metrics"
	"u1/internal/protocol"
)

// TestEveryCommandHelps builds every command's flag set — a flag declared
// twice panics here — and requires -h to return cleanly.
func TestEveryCommandHelps(t *testing.T) {
	for name := range commands {
		if err := run([]string{name, "-h"}, io.Discard); err != nil {
			t.Errorf("u1 %s -h: %v", name, err)
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"bench"}, &out); err == nil {
		t.Error("u1 bench: want an error for an unknown command")
	}
	if !strings.Contains(out.String(), "usage: u1") || !strings.Contains(out.String(), "sim") {
		t.Errorf("unknown command printed %q, want the usage", out.String())
	}
}

// TestRefusedCombinations pins command lines whose flags contradict each
// other, or contradict a store an earlier run left: each must fail before
// running anything.
func TestRefusedCombinations(t *testing.T) {
	used := t.TempDir()
	if err := run([]string{"sim", "-users", "20", "-days", "1", "-workers", "1", "-durability", used}, io.Discard); err != nil {
		t.Fatalf("sim into a fresh store: %v", err)
	}
	jsonEra := jsonEraStore(t)
	for _, args := range [][]string{
		{"sim", "-report", "-out", t.TempDir()},
		{"serve", "-regions", "2", "-gateway", "127.0.0.1:0"},
		{"serve", "-machines", "7", "-gateway", "127.0.0.1:0"},
		{"sim", "-fsync", "async", "-users", "5", "-days", "1"},
		{"sim", "-repl-delay", "1", "-users", "5", "-days", "1"},
		{"sim", "-fault-rate", "2", "-users", "5", "-days", "1"},
		{"analyze", "-fig", "99", "-users", "5", "-days", "1"},
		{"analyze", "-table", "7", "-users", "5", "-days", "1"},
		{"sim", "-users", "-5", "-days", "1"},
		{"sim", "-users", "0"},
		{"sim", "-workers", "-1", "-users", "5", "-days", "1"},
		{"analyze", "-days", "0"},
		{"sim", "-users", "60", "-days", "2", "-workers", "1", "-regions", "2", "-repl-delay", "-5"},
		{"sim", "-durability", t.TempDir(), "-snapshot-every", "-7", "-users", "5", "-days", "1"},
		{"serve", "-procs", "-3", "-gateway", "127.0.0.1:0"},
		{"sim", "-users", "20", "-days", "1", "-workers", "1", "-durability", used},
		{"analyze", "-users", "20", "-days", "1", "-durability", used},
		{"serve", "-durability", jsonEra, "-gateway", "127.0.0.1:0"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("u1 %s: ran, want it refused", strings.Join(args, " "))
		}
	}
}

// jsonEraStore is a store directory a JSON-era build left: shard 0 holds the
// snapshot.json the metadata package's json-era golden records for it.
func jsonEraStore(t *testing.T) string {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "metadata", "testdata", "json-era.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(golden), "# shard 0 snapshot\n")
	if !ok {
		t.Fatal("json-era golden holds no shard 0 snapshot")
	}
	snapshot, _, _ := strings.Cut(rest, "\n")
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "shard-0"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-0", "snapshot.json"), []byte(snapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSimTreeRepeats runs the same serial simulation twice in one process:
// the streamed logfile trees must be byte-identical.
func TestSimTreeRepeats(t *testing.T) {
	var trees [2]map[string]string
	for i := range trees {
		dir := t.TempDir()
		if err := run([]string{"sim", "-workers", "1", "-users", "40", "-days", "2", "-out", dir}, io.Discard); err != nil {
			t.Fatal(err)
		}
		trees[i] = readTree(t, dir)
	}
	if len(trees[0]) == 0 {
		t.Fatal("the run wrote no logfiles")
	}
	if len(trees[0]) != len(trees[1]) {
		t.Fatalf("runs wrote %d and %d logfiles", len(trees[0]), len(trees[1]))
	}
	for name, data := range trees[0] {
		if trees[1][name] != data {
			t.Errorf("logfile %s differs between runs", name)
		}
	}
}

func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[strings.TrimPrefix(path, dir)] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSimReportRepeats runs the serial -report twice: the paper table, from
// its header to its closing rule, must be identical.
func TestSimReportRepeats(t *testing.T) {
	var tables [2]string
	for i := range tables {
		var out bytes.Buffer
		if err := run([]string{"sim", "-report", "-workers", "1", "-users", "40", "-days", "2"}, &out); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		begin := strings.Index(s, "exp ")
		end := strings.Index(s, "\n== live metrics")
		if begin < 0 || end < begin {
			t.Fatalf("no paper table in:\n%s", s)
		}
		tables[i] = s[begin:end]
	}
	if tables[0] != tables[1] {
		t.Errorf("paper tables differ:\n%s\n---\n%s", tables[0], tables[1])
	}
}

// TestAnalyzeTraceTree writes a serial run's trace tree with its RPC
// records and analyzes it back: after the `read N records` line the output
// must equal the in-memory analysis of the same run, which itself must
// repeat byte for byte within one process.
func TestAnalyzeTraceTree(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"sim", "-workers", "1", "-users", "60", "-days", "2", "-rpc", "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"analyze", "-trace", dir, "-days", "2", "-all"}, &out); err != nil {
		t.Fatal(err)
	}
	read, fromTree, _ := strings.Cut(out.String(), "\n")
	if !strings.HasPrefix(read, "read ") || !strings.Contains(fromTree, "Table 1") {
		t.Fatalf("analyze -trace printed:\n%s", out.String())
	}
	for i := 0; i < 2; i++ {
		var inMemory bytes.Buffer
		if err := run([]string{"analyze", "-workers", "1", "-users", "60", "-days", "2", "-all"}, &inMemory); err != nil {
			t.Fatal(err)
		}
		if got := inMemory.String(); got != fromTree {
			t.Errorf("in-memory run %d differs from the trace tree at line %d", i, firstDiff(got, fromTree))
		}
	}
}

// firstDiff is the 1-based number of the first line where a and b differ.
func firstDiff(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range al {
		if i >= len(bl) || al[i] != bl[i] {
			return i + 1
		}
	}
	return len(al) + 1
}

// TestServeDurableRestart serves a durable cluster over real sockets, uploads
// a file, stops, serves again on the same directory with a fresh token, and
// finds the file with the same content hash.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-gateway", "127.0.0.1:0", "-durability", dir, "-issue", "1"}
	content := []byte("written before the restart")

	addr, token, _, stop := startServe(t, args)
	cli := dial(t, addr, token)
	root, _ := cli.RootVolume()
	up, _, err := cli.Upload(root, 0, "kept.txt", content)
	if err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := stop(); err != nil {
		t.Fatalf("first serve: %v", err)
	}

	addr, token, _, stop = startServe(t, args)
	cli = dial(t, addr, token)
	root, _ = cli.RootVolume()
	if _, err := cli.Sync(root); err != nil {
		t.Fatal(err)
	}
	m, _ := cli.Mirror(root)
	got, ok := m.Nodes[up.ID]
	if !ok || got.Name != "kept.txt" || got.Hash != protocol.HashBytes(content) {
		t.Errorf("after the restart node %d = %+v (found %v), want kept.txt with the uploaded hash", up.ID, got, ok)
	}
	cli.Close()
	if err := stop(); err != nil {
		t.Fatalf("second serve: %v", err)
	}
}

// startServe runs serve in the background until it prints "ready", returning
// the gateway address, user 1's token, and a stop function that signals
// serve and returns its error.
func startServe(t *testing.T, args []string) (addr, token, debug string, stop func() error) {
	t.Helper()
	pr, pw := io.Pipe()
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := serve(args, pw, sig)
		pw.Close()
		done <- err
	}()
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "gateway listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
		if rest, ok := strings.CutPrefix(line, "debug listening on "); ok {
			debug = rest
		}
		if rest, ok := strings.CutPrefix(line, "user 1 token: "); ok {
			token = rest
		}
		if line == "ready; ctrl-c to stop" {
			break
		}
	}
	if addr == "" || token == "" {
		t.Fatalf("serve never became ready: %v", <-done)
	}
	go io.Copy(io.Discard, pr) //nolint:errcheck
	return addr, token, debug, func() error {
		sig <- os.Interrupt
		return <-done
	}
}

func dial(t *testing.T, addr, token string) *client.Client {
	t.Helper()
	tr, err := client.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	cli := client.New(tr)
	// The data store keeps bytes in memory only; a restarted cluster has the
	// metadata, not the content, so the client must not fetch it.
	cli.AutoFetch = false
	if err := cli.Connect(token); err != nil {
		t.Fatal(err)
	}
	return cli
}

// TestServeDebugAddr pins serve's -debug-addr: /healthz answers, /metrics
// moves with the traffic in both of its forms, and the profiles are served
// on the same listener.
func TestServeDebugAddr(t *testing.T) {
	addr, token, debug, stop := startServe(t, []string{"-gateway", "127.0.0.1:0", "-issue", "1", "-debug-addr", "127.0.0.1:0"})
	if debug == "" {
		t.Fatal("serve printed no debug address")
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + debug + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}
	// PutContent's series go by the paper's name for the operation, Upload.
	count := metrics.APIOp(protocol.OpPutContent.String()).Count
	line := metrics.APIOpPrefix + protocol.OpPutContent.String() + ".count "
	puts := func() (n uint64) {
		t.Helper()
		for _, l := range strings.Split(get("/metrics"), "\n") {
			if rest, ok := strings.CutPrefix(l, line); ok {
				if _, err := fmt.Sscan(rest, &n); err != nil {
					t.Fatal(err)
				}
			}
		}
		return n
	}

	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	before := puts()
	cli := dial(t, addr, token)
	root, _ := cli.RootVolume()
	if _, _, err := cli.Upload(root, 0, "watched.txt", []byte("counted")); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	after := puts()
	if after != before+1 {
		t.Errorf("%q went %d → %d over one upload", line, before, after)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter(count); got != after {
		t.Errorf("JSON snapshot counts %d PutContent, the text form %d", got, after)
	}
	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Error("/debug/pprof/ lists no goroutine profile")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthzReportsFailure: while the health func fails, /healthz answers
// 503 with its text, one line per cause, and "ok" again once it passes.
func TestHealthzReportsFailure(t *testing.T) {
	var mu sync.Mutex
	var fault error
	setFault := func(err error) { mu.Lock(); fault = err; mu.Unlock() }
	at, stop, err := serveDebug("127.0.0.1:0", metrics.NewRegistry(), func() error { mu.Lock(); defer mu.Unlock(); return fault })
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck
	healthz := func() (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + at.String() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	two := errors.Join(errors.New("metadata shard 1 is fenced until recovery: no space left on device"),
		errors.New("metadata shard 3 is fenced until recovery: input/output error"))
	setFault(two)
	code, body := healthz()
	if want := "unhealthy\n" + two.Error() + "\n"; code != http.StatusServiceUnavailable || body != want {
		t.Errorf("/healthz with two fenced shards = %d %q, want 503 %q", code, body, want)
	}
	setFault(nil)
	if code, body := healthz(); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz once healthy = %d %q, want 200 \"ok\\n\"", code, body)
	}
}

// TestServeChild is the child half of TestServeSurvivesKill: run with
// arguments after "--", it is `u1` with those arguments, until killed.
func TestServeChild(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs only as TestServeSurvivesKill's child")
	}
	if err := run(flag.Args(), os.Stdout); err != nil {
		t.Fatal(err)
	}
}

// TestServeSurvivesKill is the SIGKILL drill over real sockets: it runs
// `u1 serve -fsync per-op` on a durable directory as a child process, makes
// files through the TCP client, kills the child with SIGKILL while files are
// still being made, serves again on the same directory, and requires every
// file whose upload was acknowledged. A process kill keeps the page cache,
// so this drill proves no acknowledgement runs ahead of the journal write;
// a power cut, which also loses what no flush covered, stays with the
// in-memory disk's crash tests (vfs.MemFS, internal/metadata).
func TestServeSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	serveChild := func() (cmd *exec.Cmd, addr, token string) {
		t.Helper()
		cmd = exec.Command(os.Args[0], "-test.run=^TestServeChild$", "--",
			"serve", "-durability", dir, "-fsync", "per-op", "-gateway", "127.0.0.1:0", "-issue", "1")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() }) //nolint:errcheck
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "gateway listening on "); ok {
				addr, _, _ = strings.Cut(rest, " ")
			}
			if rest, ok := strings.CutPrefix(line, "user 1 token: "); ok {
				token = rest
			}
			if line == "ready; ctrl-c to stop" {
				break
			}
		}
		if addr == "" || token == "" {
			t.Fatalf("the serve child never became ready: %v", sc.Err())
		}
		go io.Copy(io.Discard, out) //nolint:errcheck
		return cmd, addr, token
	}

	cmd, addr, token := serveChild()
	cli := dial(t, addr, token)
	root, _ := cli.RootVolume()
	acked := map[protocol.NodeID]protocol.Hash{}
	for i := 0; ; i++ {
		if i == 40 {
			go cmd.Process.Kill() //nolint:errcheck
		}
		content := []byte(fmt.Sprintf("file %d", i))
		up, _, err := cli.Upload(root, 0, fmt.Sprintf("f-%d.txt", i), content)
		if err != nil {
			break
		}
		acked[up.ID] = protocol.HashBytes(content)
	}
	cli.Close()
	cmd.Wait() //nolint:errcheck
	if len(acked) < 40 {
		t.Fatalf("only %d uploads acknowledged before the kill", len(acked))
	}

	_, addr, token = serveChild()
	cli = dial(t, addr, token)
	defer cli.Close()
	root, _ = cli.RootVolume()
	if _, err := cli.Sync(root); err != nil {
		t.Fatal(err)
	}
	m, _ := cli.Mirror(root)
	for id, h := range acked {
		if n, ok := m.Nodes[id]; !ok || n.Hash != h {
			t.Errorf("acknowledged file %d after the restart: %+v (found %v), want hash %v", id, n, ok, h)
		}
	}
	t.Logf("%d uploads acknowledged before the kill, all served after the restart", len(acked))
}
