package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"u1/internal/protocol"
	"u1/internal/stats"
	"u1/internal/trace"
)

// Transitions reproduces Fig. 8: the user-centric operation transition graph.
// Consecutive operations of the same user form bigrams; edge weights are
// global transition probabilities.
type Transitions struct {
	// Prob[a][b] = P(next=b | cur=a), over ops with at least minCount
	// outgoing transitions.
	Prob map[protocol.Op]map[protocol.Op]float64
	// Top lists the highest-probability edges globally (the paper annotates
	// the top ten).
	Top []TransitionEdge
	// TransferSelfLoop is P(next is a transfer | cur is a transfer), the
	// paper's headline observation about repeated transfers.
	TransferSelfLoop float64
}

// TransitionEdge is one labeled edge of the graph.
type TransitionEdge struct {
	From, To protocol.Op
	P        float64 // global probability of this edge among all transitions
}

// AnalyzeTransitions computes Fig. 8.
func AnalyzeTransitions(t *Trace) Transitions {
	lastOp := make(map[uint64]protocol.Op)
	counts := make(map[protocol.Op]map[protocol.Op]uint64)
	var total uint64
	var transferPairs, transferFollows uint64

	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind != trace.KindStorage && r.Kind != trace.KindSession {
			continue
		}
		op := protocol.Op(r.Op)
		if prev, ok := lastOp[r.User]; ok {
			row, ok := counts[prev]
			if !ok {
				row = make(map[protocol.Op]uint64)
				counts[prev] = row
			}
			row[op]++
			total++
			if prev.IsData() {
				transferPairs++
				if op.IsData() {
					transferFollows++
				}
			}
		}
		if op == protocol.OpCloseSession {
			delete(lastOp, r.User)
		} else {
			lastOp[r.User] = op
		}
	}

	res := Transitions{Prob: make(map[protocol.Op]map[protocol.Op]float64)}
	for from, row := range counts {
		var rowTotal uint64
		for _, c := range row {
			rowTotal += c
		}
		if rowTotal == 0 {
			continue
		}
		probs := make(map[protocol.Op]float64, len(row))
		for to, c := range row {
			probs[to] = float64(c) / float64(rowTotal)
			if total > 0 {
				res.Top = append(res.Top, TransitionEdge{From: from, To: to, P: float64(c) / float64(total)})
			}
		}
		res.Prob[from] = probs
	}
	// Edges were collected in map order; ties on P must break on the edge
	// itself, or both their order and which of them survive the cut change
	// from run to run.
	sort.Slice(res.Top, func(i, j int) bool {
		a, b := res.Top[i], res.Top[j]
		if a.P != b.P {
			return a.P > b.P
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	if len(res.Top) > 10 {
		res.Top = res.Top[:10]
	}
	if transferPairs > 0 {
		res.TransferSelfLoop = float64(transferFollows) / float64(transferPairs)
	}
	return res
}

// Render produces the Fig. 8 block.
func (tr Transitions) Render() string {
	var b strings.Builder
	b.WriteString("Fig 8: client transition graph (top global edges)\n")
	for _, e := range tr.Top {
		fmt.Fprintf(&b, "  %-14s → %-14s %.3f\n", e.From, e.To, e.P)
	}
	return b.String()
}

// Burstiness reproduces Fig. 9: per-user inter-operation times for Upload and
// Unlink, their power-law tail fits and their coefficient of variation.
type Burstiness struct {
	UploadGaps, UnlinkGaps *stats.CDF
	UploadFit, UnlinkFit   stats.PowerLawFit
	// CoVUpload is the coefficient of variation of upload inter-op times;
	// an exponential (Poisson) process has CoV = 1, bursty processes ≫ 1.
	CoVUpload float64
}

// AnalyzeBurstiness computes Fig. 9.
func AnalyzeBurstiness(t *Trace) Burstiness {
	lastUpload := make(map[uint64]int64)
	lastUnlink := make(map[uint64]int64)
	var upGaps, unGaps []float64
	for i := range t.Records {
		r := &t.Records[i]
		switch {
		case isUpload(r):
			if prev, ok := lastUpload[r.User]; ok {
				if gap := float64(r.Time-prev) / float64(time.Second); gap > 0 {
					upGaps = append(upGaps, gap)
				}
			}
			lastUpload[r.User] = r.Time
		case isUnlink(r):
			if prev, ok := lastUnlink[r.User]; ok {
				if gap := float64(r.Time-prev) / float64(time.Second); gap > 0 {
					unGaps = append(unGaps, gap)
				}
			}
			lastUnlink[r.User] = r.Time
		}
	}
	res := Burstiness{
		UploadGaps: stats.NewCDF(upGaps),
		UnlinkGaps: stats.NewCDF(unGaps),
		UploadFit:  stats.FitPowerLawAuto(upGaps, 50),
		UnlinkFit:  stats.FitPowerLawAuto(unGaps, 50),
	}
	if m := stats.Mean(upGaps); m > 0 {
		res.CoVUpload = stats.StdDev(upGaps) / m
	}
	return res
}

// Render produces the Fig. 9 block.
func (bu Burstiness) Render() string {
	var b strings.Builder
	b.WriteString("Fig 9: burstiness of user inter-operation times\n")
	fmt.Fprintf(&b, "  upload: n=%d, power-law α=%.2f θ=%.1fs; bursty=%v\n",
		bu.UploadGaps.N(), bu.UploadFit.Alpha, bu.UploadFit.Theta, bu.UploadFit.Bursty())
	fmt.Fprintf(&b, "  unlink: n=%d, power-law α=%.2f θ=%.1fs; bursty=%v\n",
		bu.UnlinkGaps.N(), bu.UnlinkFit.Alpha, bu.UnlinkFit.Theta, bu.UnlinkFit.Bursty())
	return b.String()
}

// Volumes reproduces Fig. 10 (files vs directories per volume) and Fig. 11
// (UDF and shared volumes across users).
type Volumes struct {
	FilesPerVolume, DirsPerVolume *stats.CDF
	// Pearson correlation between per-volume file and dir counts (paper:
	// 0.998).
	Pearson float64
	// VolumesOver1000Files share (paper: ≈5%).
	Over1000Share float64
	// WithFilesShare/WithDirsShare (paper: >60% and ≈32%).
	WithFilesShare, WithDirsShare float64
	// UDFsPerUser and SharesPerUser CDFs; shares of users with ≥1 (paper:
	// 58% and 1.8%).
	UDFsPerUser, SharesPerUser *stats.CDF
	UDFShare, SharedShare      float64
	Users                      int
}

// AnalyzeVolumes computes Fig. 10/11 from the trace's create/delete events.
func AnalyzeVolumes(t *Trace) Volumes {
	type vcount struct{ files, dirs float64 }
	perVolume := make(map[uint64]*vcount)
	udfs := make(map[uint64]float64)   // user → UDF count
	shares := make(map[uint64]float64) // user → shares touched
	users := make(map[uint64]struct{})

	vc := func(vol uint64) *vcount {
		c, ok := perVolume[vol]
		if !ok {
			c = &vcount{}
			perVolume[vol] = c
		}
		return c
	}
	for i := range t.Records {
		r := &t.Records[i]
		if r.User != 0 {
			users[r.User] = struct{}{}
		}
		if r.Kind != trace.KindStorage || r.Status != uint8(protocol.StatusOK) {
			continue
		}
		switch protocol.Op(r.Op) {
		case protocol.OpMakeFile:
			vc(r.Volume).files++
		case protocol.OpMakeDir:
			vc(r.Volume).dirs++
		case protocol.OpUnlink:
			if r.IsDir() {
				vc(r.Volume).dirs--
			} else {
				vc(r.Volume).files--
			}
		case protocol.OpCreateUDF:
			udfs[r.User]++
		case protocol.OpCreateShare:
			shares[r.User]++
		case protocol.OpAcceptShare:
			shares[r.User]++
		case protocol.OpDeleteVolume:
			delete(perVolume, r.Volume)
			if udfs[r.User] > 0 {
				udfs[r.User]--
			}
		}
	}

	var files, dirs []float64
	var over1000, withFiles, withDirs int
	for _, vol := range sortedKeys(perVolume) {
		c := perVolume[vol]
		f, d := c.files, c.dirs
		if f < 0 {
			f = 0
		}
		if d < 0 {
			d = 0
		}
		files = append(files, f)
		dirs = append(dirs, d)
		if f > 1000 {
			over1000++
		}
		if f >= 1 {
			withFiles++
		}
		if d >= 1 {
			withDirs++
		}
	}
	res := Volumes{
		FilesPerVolume: stats.NewCDF(files),
		DirsPerVolume:  stats.NewCDF(dirs),
		Pearson:        stats.Pearson(files, dirs),
		Users:          len(users),
	}
	if n := len(perVolume); n > 0 {
		res.Over1000Share = float64(over1000) / float64(n)
		res.WithFilesShare = float64(withFiles) / float64(n)
		res.WithDirsShare = float64(withDirs) / float64(n)
	}
	var udfCounts, shareCounts []float64
	var withUDF, withShare int
	for _, u := range sortedKeys(users) {
		if n := udfs[u]; n > 0 {
			withUDF++
			udfCounts = append(udfCounts, n)
		}
		if n := shares[u]; n > 0 {
			withShare++
			shareCounts = append(shareCounts, n)
		}
	}
	res.UDFsPerUser = stats.NewCDF(udfCounts)
	res.SharesPerUser = stats.NewCDF(shareCounts)
	if len(users) > 0 {
		res.UDFShare = float64(withUDF) / float64(len(users))
		res.SharedShare = float64(withShare) / float64(len(users))
	}
	return res
}

// Render produces the Fig. 10/11 block.
func (v Volumes) Render() string {
	return "Fig 10: files and directories per volume\nFig 11: user-defined and shared volumes\n"
}
