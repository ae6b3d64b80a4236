package analysis

import (
	"fmt"
	"strings"
	"time"

	"u1/internal/plot"
	"u1/internal/protocol"
	"u1/internal/stats"
	"u1/internal/trace"
)

// Dependencies reproduces Fig. 3a/3b: the inter-arrival time distributions
// of file operation pairs — Write/Read/Delete after Write, and after Read —
// plus the downloads-per-file distribution of the Fig. 3b inset.
type Dependencies struct {
	WAW, RAW, DAW *stats.CDF // seconds between ops on the same node
	WAR, RAR, DAR *stats.CDF
	// Fractions within each family (paper: WAW 44%, RAW 30%, DAW 26%;
	// RAR 66%, DAR 24%, WAR 10%).
	AfterWriteN, AfterReadN   int
	WAWFrac, RAWFrac, DAWFrac float64
	WARFrac, RARFrac, DARFrac float64
	DownloadsPerFile          *stats.CDF
	// WAWUnderHour is the share of WAW gaps below one hour (paper: 80%).
	WAWUnderHour float64
	// DyingFiles counts files unused >1 day before their deletion, and its
	// share of all files seen (paper: 12.5M files, 9.1%).
	DyingFiles     int
	DyingFileShare float64
}

type nodeEventKind uint8

const (
	evWrite nodeEventKind = iota
	evRead
	evDelete
)

// AnalyzeDependencies computes Fig. 3a/3b from per-node op sequences.
func AnalyzeDependencies(t *Trace) Dependencies {
	type last struct {
		kind nodeEventKind
		at   int64
	}
	lastOp := make(map[uint64]last)
	var waw, raw, daw, war, rar, dar []float64
	downloads := make(map[uint64]float64)
	filesSeen := make(map[uint64]struct{})
	var dying int

	for i := range t.Records {
		r := &t.Records[i]
		var kind nodeEventKind
		switch {
		case isUpload(r):
			kind = evWrite
			filesSeen[r.Node] = struct{}{}
		case isDownload(r):
			kind = evRead
			downloads[r.Node]++
		case isUnlink(r) && !r.IsDir():
			kind = evDelete
		default:
			continue
		}
		if prev, ok := lastOp[r.Node]; ok {
			gap := float64(r.Time-prev.at) / float64(time.Second)
			if gap < 0 {
				gap = 0
			}
			switch {
			case prev.kind == evWrite && kind == evWrite:
				waw = append(waw, gap)
			case prev.kind == evWrite && kind == evRead:
				raw = append(raw, gap)
			case prev.kind == evWrite && kind == evDelete:
				daw = append(daw, gap)
				if gap > 24*3600 {
					dying++
				}
			case prev.kind == evRead && kind == evWrite:
				war = append(war, gap)
			case prev.kind == evRead && kind == evRead:
				rar = append(rar, gap)
			case prev.kind == evRead && kind == evDelete:
				dar = append(dar, gap)
				if gap > 24*3600 {
					dying++
				}
			}
		}
		if kind == evDelete {
			delete(lastOp, r.Node)
		} else {
			lastOp[r.Node] = last{kind: kind, at: r.Time}
		}
	}

	res := Dependencies{
		WAW: stats.NewCDF(waw), RAW: stats.NewCDF(raw), DAW: stats.NewCDF(daw),
		WAR: stats.NewCDF(war), RAR: stats.NewCDF(rar), DAR: stats.NewCDF(dar),
	}
	res.AfterWriteN = len(waw) + len(raw) + len(daw)
	if res.AfterWriteN > 0 {
		res.WAWFrac = float64(len(waw)) / float64(res.AfterWriteN)
		res.RAWFrac = float64(len(raw)) / float64(res.AfterWriteN)
		res.DAWFrac = float64(len(daw)) / float64(res.AfterWriteN)
	}
	res.AfterReadN = len(war) + len(rar) + len(dar)
	if res.AfterReadN > 0 {
		res.WARFrac = float64(len(war)) / float64(res.AfterReadN)
		res.RARFrac = float64(len(rar)) / float64(res.AfterReadN)
		res.DARFrac = float64(len(dar)) / float64(res.AfterReadN)
	}
	res.WAWUnderHour = res.WAW.At(3600)
	counts := make([]float64, 0, len(downloads))
	for _, f := range sortedKeys(downloads) {
		counts = append(counts, downloads[f])
	}
	res.DownloadsPerFile = stats.NewCDF(counts)
	res.DyingFiles = dying
	if len(filesSeen) > 0 {
		res.DyingFileShare = float64(dying) / float64(len(filesSeen))
	}
	return res
}

// Render produces the Fig. 3a/3b block.
func (d Dependencies) Render() string {
	var b strings.Builder
	b.WriteString("Fig 3a: X-after-Write dependencies\n")
	b.WriteString(plot.CDF("  inter-op times (s)", map[string]*stats.CDF{
		"WAW": d.WAW, "RAW": d.RAW, "DAW": d.DAW,
	}, 80))
	b.WriteString("Fig 3b: X-after-Read dependencies\n")
	b.WriteString(plot.CDF("  inter-op times (s)", map[string]*stats.CDF{
		"RAR": d.RAR, "DAR": d.DAR, "WAR": d.WAR,
	}, 80))
	if d.DownloadsPerFile.N() > 0 {
		fmt.Fprintf(&b, "  downloads/file: p50=%.0f p90=%.0f p99=%.0f max=%.0f (long tail)\n",
			d.DownloadsPerFile.Quantile(0.5), d.DownloadsPerFile.Quantile(0.9),
			d.DownloadsPerFile.Quantile(0.99), d.DownloadsPerFile.Max())
	}
	fmt.Fprintf(&b, "  dying files (idle >1d before delete): %d (%.1f%% of files)\n", d.DyingFiles, 100*d.DyingFileShare)
	return b.String()
}

// Lifetime reproduces Fig. 3c: the node lifetime distributions.
type Lifetime struct {
	Files, Dirs *stats.CDF // lifetime in seconds, deleted nodes only
	// Fractions of created nodes deleted within the window / within 8h
	// (paper: 28.9% files, 31.5% dirs die in the month; 17.1%/12.9% <8h).
	FileDeadFrac, DirDeadFrac     float64
	FileDead8hFrac, DirDead8hFrac float64
	FilesCreated, DirsCreated     int
}

// AnalyzeLifetime computes Fig. 3c from create/unlink pairs.
func AnalyzeLifetime(t *Trace) Lifetime {
	fileBorn := make(map[uint64]int64)
	dirBorn := make(map[uint64]int64)
	var fileLives, dirLives []float64
	var filesCreated, dirsCreated int

	for i := range t.Records {
		r := &t.Records[i]
		if r.Kind != trace.KindStorage {
			continue
		}
		switch protocol.Op(r.Op) {
		case protocol.OpMakeFile:
			if r.Status == uint8(protocol.StatusOK) {
				if _, seen := fileBorn[r.Node]; !seen {
					fileBorn[r.Node] = r.Time
					filesCreated++
				}
			}
		case protocol.OpMakeDir:
			if r.Status == uint8(protocol.StatusOK) {
				if _, seen := dirBorn[r.Node]; !seen {
					dirBorn[r.Node] = r.Time
					dirsCreated++
				}
			}
		case protocol.OpUnlink:
			if r.Status != uint8(protocol.StatusOK) {
				continue
			}
			if born, ok := fileBorn[r.Node]; ok && !r.IsDir() {
				fileLives = append(fileLives, float64(r.Time-born)/float64(time.Second))
				delete(fileBorn, r.Node)
			}
			if born, ok := dirBorn[r.Node]; ok && r.IsDir() {
				dirLives = append(dirLives, float64(r.Time-born)/float64(time.Second))
				delete(dirBorn, r.Node)
			}
		}
	}
	res := Lifetime{
		Files:        stats.NewCDF(fileLives),
		Dirs:         stats.NewCDF(dirLives),
		FilesCreated: filesCreated,
		DirsCreated:  dirsCreated,
	}
	if filesCreated > 0 {
		res.FileDeadFrac = float64(len(fileLives)) / float64(filesCreated)
		res.FileDead8hFrac = res.Files.At(8*3600) * res.FileDeadFrac
	}
	if dirsCreated > 0 {
		res.DirDeadFrac = float64(len(dirLives)) / float64(dirsCreated)
		res.DirDead8hFrac = res.Dirs.At(8*3600) * res.DirDeadFrac
	}
	return res
}

// Render produces the Fig. 3c block.
func (l Lifetime) Render() string {
	var b strings.Builder
	b.WriteString("Fig 3c: node lifetime\n")
	fmt.Fprintf(&b, "  files: %d created, %.1f%% deleted in window, %.1f%% within 8h\n",
		l.FilesCreated, 100*l.FileDeadFrac, 100*l.FileDead8hFrac)
	fmt.Fprintf(&b, "  dirs:  %d created, %.1f%% deleted in window, %.1f%% within 8h\n",
		l.DirsCreated, 100*l.DirDeadFrac, 100*l.DirDead8hFrac)
	b.WriteString(plot.CDF("  lifetimes of deleted nodes (s)", map[string]*stats.CDF{
		"files": l.Files, "dirs": l.Dirs,
	}, 80))
	return b.String()
}

// Dedup reproduces Fig. 4a: duplicates per content hash and the dedup ratio.
type Dedup struct {
	Ratio float64
	// RefsPerHash is the distribution of file references per unique content.
	RefsPerHash *stats.CDF
	// SingletonShare is the fraction of contents with exactly one reference
	// (paper: ≈80%).
	SingletonShare float64
	UniqueContents int
}

// AnalyzeDedup computes Fig. 4a over upload records. References count
// distinct file nodes per content, so save-cycle re-uploads of one file do
// not inflate the ratio.
func AnalyzeDedup(t *Trace) Dedup {
	size := make(map[uint64]uint64)
	nodes := make(map[uint64]map[uint64]struct{})
	for i := range t.Records {
		r := &t.Records[i]
		if isUpload(r) && r.HashLo != 0 {
			size[r.HashLo] = r.Size
			set, ok := nodes[r.HashLo]
			if !ok {
				set = make(map[uint64]struct{})
				nodes[r.HashLo] = set
			}
			set[r.Node] = struct{}{}
		}
	}
	refs := make(map[uint64]float64, len(nodes))
	for h, set := range nodes {
		refs[h] = float64(len(set))
	}
	var unique, logical float64
	var singles int
	counts := make([]float64, 0, len(refs))
	for _, h := range sortedKeys(refs) {
		n := refs[h]
		counts = append(counts, n)
		unique += float64(size[h])
		logical += float64(size[h]) * n
		if n == 1 {
			singles++
		}
	}
	res := Dedup{RefsPerHash: stats.NewCDF(counts), UniqueContents: len(refs)}
	if logical > 0 {
		res.Ratio = 1 - unique/logical
	}
	if len(refs) > 0 {
		res.SingletonShare = float64(singles) / float64(len(refs))
	}
	return res
}

// Render produces the Fig. 4a block.
func (d Dedup) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4a: file-based deduplication\n")
	fmt.Fprintf(&b, "  unique contents = %d; singletons = %.0f%%\n", d.UniqueContents, 100*d.SingletonShare)
	if d.RefsPerHash.N() > 0 {
		fmt.Fprintf(&b, "  refs/hash: p50=%.0f p90=%.0f p99=%.0f max=%.0f (long tail)\n",
			d.RefsPerHash.Quantile(0.5), d.RefsPerHash.Quantile(0.9),
			d.RefsPerHash.Quantile(0.99), d.RefsPerHash.Max())
	}
	return b.String()
}

// Sizes reproduces Fig. 4b: file-size CDFs per popular extension and overall.
type Sizes struct {
	All   *stats.CDF
	ByExt map[string]*stats.CDF
	// Sub1MBShare is P(size < 1 MB) overall (paper: 90%).
	Sub1MBShare float64
}

// fig4bExtensions are the extensions the paper plots.
var fig4bExtensions = []string{"jpg", "mp3", "pdf", "doc", "java", "zip"}

// AnalyzeSizes computes Fig. 4b over uploaded files (first version of each
// node, as the paper's "transferred files").
func AnalyzeSizes(t *Trace) Sizes {
	var all []float64
	byExt := make(map[string][]float64)
	want := make(map[string]bool, len(fig4bExtensions))
	for _, e := range fig4bExtensions {
		want[e] = true
	}
	for i := range t.Records {
		r := &t.Records[i]
		if !isUpload(r) {
			continue
		}
		s := float64(r.Size)
		all = append(all, s)
		if ext := t.Ext(r.Ext); want[ext] {
			byExt[ext] = append(byExt[ext], s)
		}
	}
	res := Sizes{All: stats.NewCDF(all), ByExt: make(map[string]*stats.CDF, len(byExt))}
	for ext, xs := range byExt {
		res.ByExt[ext] = stats.NewCDF(xs)
	}
	res.Sub1MBShare = res.All.At(1 << 20)
	return res
}

// Render produces the Fig. 4b block.
func (s Sizes) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4b: file size distributions\n")
	fmt.Fprintf(&b, "  all files: n=%d, P(<1MB) = %.1f%%\n", s.All.N(), 100*s.Sub1MBShare)
	curves := map[string]*stats.CDF{"all": s.All}
	for ext, c := range s.ByExt {
		curves[ext] = c
	}
	b.WriteString(plot.CDF("  sizes (bytes)", curves, 80))
	return b.String()
}

// Types reproduces Fig. 4c: number share vs storage share per file category.
type Types struct {
	Categories []string
	FileShare  []float64
	ByteShare  []float64
}

// categoryOf maps an extension to its Fig. 4c category, mirroring the
// workload profile's catalog (the analysis must not import the generator, so
// the mapping lives here too; both encode the paper's Table of §5.3).
func categoryOf(ext string) string {
	switch ext {
	case "java", "c", "h", "py", "js", "php", "cpp", "html", "css", "rb", "go":
		return "Code"
	case "jpg", "png", "gif", "bmp", "svg", "tiff", "jpeg":
		return "Pictures"
	case "pdf", "txt", "doc", "docx", "xls", "ppt", "odt", "tex", "md":
		return "Documents"
	case "mp3", "wav", "ogg", "flac", "avi", "mp4", "mkv", "wma", "mov":
		return "Audio/Video"
	case "o", "so", "jar", "exe", "dll", "pyc", "msf", "bin":
		return "Binary"
	case "zip", "gz", "tar", "rar", "7z", "bz2":
		return "Compressed"
	default:
		return "Other"
	}
}

// AnalyzeTypes computes Fig. 4c over distinct uploaded files (each node
// counted once, with its last observed size).
func AnalyzeTypes(t *Trace) Types {
	type fileInfo struct {
		ext  string
		size uint64
	}
	files := make(map[uint64]fileInfo)
	for i := range t.Records {
		r := &t.Records[i]
		if isUpload(r) {
			files[r.Node] = fileInfo{ext: t.Ext(r.Ext), size: r.Size}
		}
	}
	counts := make(map[string]float64)
	bytes := make(map[string]float64)
	var totalFiles, totalBytes float64
	for _, f := range files {
		cat := categoryOf(f.ext)
		counts[cat]++
		bytes[cat] += float64(f.size)
		totalFiles++
		totalBytes += float64(f.size)
	}
	cats := []string{"Code", "Pictures", "Documents", "Audio/Video", "Binary", "Compressed", "Other"}
	res := Types{Categories: cats}
	for _, cat := range cats {
		var fs, bs float64
		if totalFiles > 0 {
			fs = counts[cat] / totalFiles
		}
		if totalBytes > 0 {
			bs = bytes[cat] / totalBytes
		}
		res.FileShare = append(res.FileShare, fs)
		res.ByteShare = append(res.ByteShare, bs)
	}
	return res
}

// Render produces the Fig. 4c block.
func (ty Types) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4c: popularity vs storage consumption of file categories\n")
	b.WriteString("  category       files   storage\n")
	for i, cat := range ty.Categories {
		fmt.Fprintf(&b, "  %-13s %6.1f%% %8.1f%%\n", cat, 100*ty.FileShare[i], 100*ty.ByteShare[i])
	}
	return b.String()
}
