package trace

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"u1/internal/protocol"
)

// Logname renders the §4 logfile naming convention, e.g.
// production-whitecurrant-23-20140128.csv: environment, physical machine,
// server process number, and the date the log was cut (one file per
// server/process and day).
func Logname(machine string, proc int, day time.Time) string {
	return fmt.Sprintf("production-%s-%d-%s.csv", machine, proc, day.Format("20060102"))
}

// csvFields is the column count of a trace line.
const csvFields = 17

// appendLine renders one record as a CSV line (without newline).
func (c *Collector) appendLine(buf []byte, r *Record) []byte {
	var kind string
	switch r.Kind {
	case KindStorage:
		kind = "storage"
	case KindSession:
		kind = "session"
	default:
		kind = "rpc"
	}
	var name string
	if r.Kind == KindRPC {
		name = protocol.RPC(r.RPC).String()
	} else {
		name = protocol.Op(r.Op).String()
	}
	buf = append(buf, kind...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.Time, 10)
	buf = append(buf, ',')
	buf = append(buf, c.srvTab[r.Server]...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Proc), 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.Session, 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.User, 10)
	buf = append(buf, ',')
	buf = append(buf, name...)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.Volume, 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.Node, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Shard), 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.HashLo, 16)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.Size, 10)
	buf = append(buf, ',')
	buf = strconv.AppendUint(buf, r.Wire, 10)
	buf = append(buf, ',')
	buf = append(buf, c.extTab[r.Ext]...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, r.Dur, 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Status), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Flags), 10)
	return buf
}

// WriteCSV dumps the collected records into dir as one logfile per
// (server, process, day), following the logname convention. RPC records are
// included when retained.
func (c *Collector) WriteCSV(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, err := openStream(dir)
	if err != nil {
		return err
	}
	err = c.writeBuffered(s)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// streamState holds the open logfiles of one emission: a WriteCSV call, or a
// streaming session, whose writers stay open across flushes so each (server,
// proc, day) logfile grows in place, exactly as WriteCSV would have produced
// it in one shot.
type streamState struct {
	dir     string
	files   map[string]*bufio.Writer
	handles map[string]*os.File
	buf     []byte
}

func openStream(dir string) (*streamState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: creating %s: %w", dir, err)
	}
	return &streamState{
		dir:     dir,
		files:   make(map[string]*bufio.Writer),
		handles: make(map[string]*os.File),
	}, nil
}

// close flushes and closes every logfile, reporting the first failure.
func (s *streamState) close() error {
	var err error
	for name, w := range s.files {
		if ferr := w.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("trace: flushing %s: %w", name, ferr)
		}
	}
	for name, f := range s.handles {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: closing %s: %w", name, cerr)
		}
	}
	return err
}

// StartStream switches the collector to streaming emission: records
// accumulate only until the next Flush, which appends them to the same
// per-(server, proc, day) logfiles WriteCSV would produce and releases the
// memory. Storage/session records and RPC spans never share a logfile (RPC
// spans log under the synthetic server name "rpc"), so every file's bytes
// are identical to a post-hoc WriteCSV of the same run even though the two
// record streams interleave across flushes. Call Flush at epoch barriers and
// CloseStream when the run ends.
func (c *Collector) StartStream(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stream != nil {
		return fmt.Errorf("trace: stream to %s already open", c.stream.dir)
	}
	s, err := openStream(dir)
	if err != nil {
		return err
	}
	c.stream = s
	return nil
}

// Flush appends all buffered records to their logfiles and empties the
// buffers, releasing all but one chunk of each. It is a no-op when no stream
// is open.
func (c *Collector) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Collector) flushLocked() error {
	if c.stream == nil {
		return nil
	}
	if err := c.writeBuffered(c.stream); err != nil {
		return err
	}
	c.flushed += uint64(c.records.n)
	c.records.reset()
	c.rpcRecs.reset()
	return nil
}

// writeBuffered appends every buffered record to its logfile in s:
// storage/session records first, then retained RPC spans.
func (c *Collector) writeBuffered(s *streamState) error {
	write := func(r *Record) error { return c.streamWrite(s, r) }
	if err := c.records.each(write); err != nil {
		return err
	}
	return c.rpcRecs.each(write)
}

func (c *Collector) streamWrite(s *streamState, r *Record) error {
	day := time.Unix(0, r.Time).UTC()
	name := Logname(c.srvTab[r.Server], int(r.Proc), day)
	w, ok := s.files[name]
	if !ok {
		f, err := os.Create(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("trace: creating logfile: %w", err)
		}
		s.handles[name] = f
		w = bufio.NewWriterSize(f, 1<<16)
		s.files[name] = w
	}
	s.buf = c.appendLine(s.buf[:0], r)
	s.buf = append(s.buf, '\n')
	if _, err := w.Write(s.buf); err != nil {
		return fmt.Errorf("trace: writing logfile: %w", err)
	}
	return nil
}

// CloseStream flushes any remaining records, closes every logfile, and
// returns the collector to accumulate mode.
func (c *Collector) CloseStream() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stream
	if s == nil {
		return nil
	}
	err := c.flushLocked()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	c.stream = nil
	return err
}

// Dataset is a trace read back from logfiles: records sorted by timestamp
// plus the reconstructed interning tables.
type Dataset struct {
	Records    []Record // storage + session records
	RPCRecords []Record
	Servers    []string
	Extensions []string
	// BadLines counts unparseable lines skipped, mirroring the ≈1% parse
	// failures of the original dataset.
	BadLines int
}

// ReadCSV loads every production-*.csv logfile under dir, merging and
// sorting records by timestamp. Corrupt lines are skipped and counted.
func ReadCSV(dir string) (*Dataset, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "production-*.csv"))
	if err != nil {
		return nil, fmt.Errorf("trace: globbing %s: %w", dir, err)
	}
	sort.Strings(paths)
	ds := &Dataset{}
	servers := map[string]uint8{}
	exts := map[string]uint8{"": 0}
	ds.Extensions = []string{""}

	serverIdx := func(name string) uint8 {
		if i, ok := servers[name]; ok {
			return i
		}
		i := uint8(len(ds.Servers))
		servers[name] = i
		ds.Servers = append(ds.Servers, name)
		return i
	}
	extIdx := func(name string) uint8 {
		if i, ok := exts[name]; ok {
			return i
		}
		if len(ds.Extensions) >= 255 {
			return 0
		}
		i := uint8(len(ds.Extensions))
		exts[name] = i
		ds.Extensions = append(ds.Extensions, name)
		return i
	}

	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, fmt.Errorf("trace: opening %s: %w", p, err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		for sc.Scan() {
			rec, ok := parseLine(sc.Text(), serverIdx, extIdx)
			if !ok {
				ds.BadLines++
				continue
			}
			if rec.Kind == KindRPC {
				ds.RPCRecords = append(ds.RPCRecords, rec)
			} else {
				ds.Records = append(ds.Records, rec)
			}
		}
		err = sc.Err()
		f.Close() //nolint:errcheck
		if err != nil {
			return nil, fmt.Errorf("trace: reading %s: %w", p, err)
		}
	}
	byTime := func(rs []Record) func(i, j int) bool {
		return func(i, j int) bool { return rs[i].Time < rs[j].Time }
	}
	sort.SliceStable(ds.Records, byTime(ds.Records))
	sort.SliceStable(ds.RPCRecords, byTime(ds.RPCRecords))
	return ds, nil
}

func parseLine(line string, serverIdx, extIdx func(string) uint8) (Record, bool) {
	var r Record
	fields := strings.Split(line, ",")
	if len(fields) != csvFields {
		return r, false
	}
	switch fields[0] {
	case "storage":
		r.Kind = KindStorage
	case "session":
		r.Kind = KindSession
	case "rpc":
		r.Kind = KindRPC
	default:
		return r, false
	}
	var err error
	fail := func(e error) bool { err = e; return err != nil }

	var v int64
	if v, err = strconv.ParseInt(fields[1], 10, 64); fail(err) {
		return r, false
	}
	r.Time = v
	r.Server = serverIdx(fields[2])
	if v, err = strconv.ParseInt(fields[3], 10, 16); fail(err) {
		return r, false
	}
	r.Proc = uint8(v)
	var u uint64
	if u, err = strconv.ParseUint(fields[4], 10, 64); fail(err) {
		return r, false
	}
	r.Session = u
	if u, err = strconv.ParseUint(fields[5], 10, 64); fail(err) {
		return r, false
	}
	r.User = u
	if r.Kind == KindRPC {
		rpcOp, perr := protocol.ParseRPC(fields[6])
		if perr != nil {
			return r, false
		}
		r.RPC = uint8(rpcOp)
	} else {
		op, perr := protocol.ParseOp(fields[6])
		if perr != nil {
			return r, false
		}
		r.Op = uint8(op)
	}
	if u, err = strconv.ParseUint(fields[7], 10, 64); fail(err) {
		return r, false
	}
	r.Volume = u
	if u, err = strconv.ParseUint(fields[8], 10, 64); fail(err) {
		return r, false
	}
	r.Node = u
	if v, err = strconv.ParseInt(fields[9], 10, 8); fail(err) {
		return r, false
	}
	r.Shard = int8(v)
	if u, err = strconv.ParseUint(fields[10], 16, 64); fail(err) {
		return r, false
	}
	r.HashLo = u
	if u, err = strconv.ParseUint(fields[11], 10, 64); fail(err) {
		return r, false
	}
	r.Size = u
	if u, err = strconv.ParseUint(fields[12], 10, 64); fail(err) {
		return r, false
	}
	r.Wire = u
	r.Ext = extIdx(fields[13])
	if v, err = strconv.ParseInt(fields[14], 10, 64); fail(err) {
		return r, false
	}
	r.Dur = v
	if v, err = strconv.ParseInt(fields[15], 10, 16); fail(err) {
		return r, false
	}
	r.Status = uint8(v)
	if v, err = strconv.ParseInt(fields[16], 10, 16); fail(err) {
		return r, false
	}
	r.Flags = uint8(v)
	return r, true
}
