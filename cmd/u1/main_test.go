package main

import (
	"bufio"
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"u1/internal/client"
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
// other: each must fail before running anything.
func TestRefusedCombinations(t *testing.T) {
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
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("u1 %s: ran, want it refused", strings.Join(args, " "))
		}
	}
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

	addr, token, stop := startServe(t, args)
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

	addr, token, stop = startServe(t, args)
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
func startServe(t *testing.T, args []string) (addr, token string, stop func() error) {
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
	return addr, token, func() error {
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
