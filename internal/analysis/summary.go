package analysis

import (
	"fmt"
	"strings"

	"u1/internal/plot"
	"u1/internal/protocol"
	"u1/internal/trace"
)

// Summary reproduces Table 3: the trace-wide totals. The paper reports 30
// days, 1,294,794 users, 137.63M unique files, 42.5M sessions, 194.3M
// transfer operations, 105 TB uploaded and 120 TB downloaded.
type Summary struct {
	Days          int
	Records       int
	UniqueUsers   int
	UniqueFiles   int
	Sessions      uint64
	Transfers     uint64
	UploadBytes   uint64
	DownloadBytes uint64
	UploadOps     uint64
	DownloadOps   uint64
	// UpdateOps / UpdateBytes quantify §5.1's file-update share (paper:
	// 10.05% of uploads, 18.47% of upload traffic).
	UpdateOps   uint64
	UpdateBytes uint64
}

// AnalyzeSummary computes Table 3 from the trace.
func AnalyzeSummary(t *Trace) Summary {
	s := Summary{Days: t.Days, Records: len(t.Records)}
	users := make(map[uint64]struct{})
	files := make(map[uint64]struct{})

	for i := range t.Records {
		r := &t.Records[i]
		if r.User != 0 {
			users[r.User] = struct{}{}
		}
		switch {
		case r.Kind == trace.KindSession && protocol.Op(r.Op) == protocol.OpAuthenticate:
			if r.Status == uint8(protocol.StatusOK) {
				s.Sessions++
			}
		case isUpload(r):
			s.UploadOps++
			s.Transfers++
			s.UploadBytes += r.Size
			files[r.Node] = struct{}{}
			if r.IsUpdate() {
				s.UpdateOps++
				s.UpdateBytes += r.Size
			}
		case isDownload(r):
			s.DownloadOps++
			s.Transfers++
			s.DownloadBytes += r.Size
			files[r.Node] = struct{}{}
		}
	}
	s.UniqueUsers = len(users)
	s.UniqueFiles = len(files)
	return s
}

// UpdateOpFraction returns the share of uploads that are updates.
func (s Summary) UpdateOpFraction() float64 {
	if s.UploadOps == 0 {
		return 0
	}
	return float64(s.UpdateOps) / float64(s.UploadOps)
}

// UpdateByteFraction returns the share of upload traffic caused by updates.
func (s Summary) UpdateByteFraction() float64 {
	if s.UploadBytes == 0 {
		return 0
	}
	return float64(s.UpdateBytes) / float64(s.UploadBytes)
}

// Render produces the Table 3 block.
func (s Summary) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: Summary of the trace\n")
	fmt.Fprintf(&b, "  Trace duration          %d days\n", s.Days)
	fmt.Fprintf(&b, "  Records                 %s\n", plot.SI(float64(s.Records)))
	fmt.Fprintf(&b, "  Unique user IDs         %s\n", plot.SI(float64(s.UniqueUsers)))
	fmt.Fprintf(&b, "  Unique files            %s\n", plot.SI(float64(s.UniqueFiles)))
	fmt.Fprintf(&b, "  User sessions           %s\n", plot.SI(float64(s.Sessions)))
	fmt.Fprintf(&b, "  Transfer operations     %s\n", plot.SI(float64(s.Transfers)))
	fmt.Fprintf(&b, "  Total upload traffic    %sB\n", plot.SI(float64(s.UploadBytes)))
	fmt.Fprintf(&b, "  Total download traffic  %sB\n", plot.SI(float64(s.DownloadBytes)))
	return b.String()
}
