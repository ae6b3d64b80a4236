// Package workload synthesizes the U1 user population and drives it against
// the real back-end through the desktop client, on the simulator's virtual
// clock. Every generative model in this package is calibrated against a
// measured distribution from the paper (§5–§7); DESIGN.md lists the targets.
// The result is a trace with the same shape as the original 758 GB dataset,
// produced by the same code paths a production deployment would execute.
package workload

import (
	"u1/internal/stats"
)

// Category is the 7-way file classification of Fig. 4c.
type Category uint8

// File categories.
const (
	CatCode Category = iota
	CatPics
	CatDocs
	CatAV
	CatBinary
	CatCompressed
	CatOther
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatCode:
		return "Code"
	case CatPics:
		return "Pictures"
	case CatDocs:
		return "Documents"
	case CatAV:
		return "Audio/Video"
	case CatBinary:
		return "Binary"
	case CatCompressed:
		return "Compressed"
	default:
		return "Other"
	}
}

// ExtProfile describes one file extension: its category, population weight,
// size distribution and typical compressibility (deflated/plain ratio).
type ExtProfile struct {
	Ext      string
	Cat      Category
	Weight   float64 // relative frequency among uploaded files
	Size     stats.Sampler
	Compress float64 // wire bytes = Compress × plain bytes
}

// sizer builds the common file-size shape: a lognormal body (the per-
// extension CDFs of Fig. 4b span decades) with an optional Pareto tail for
// types that produce very large files.
func sizer(median, spread float64) stats.Sampler {
	return stats.LognormalFromMedian(median, spread)
}

func tailedSizer(median, spread, tailP, tailStart, tailAlpha float64) stats.Sampler {
	return stats.ParetoTailed{
		Body:  stats.LognormalFromMedian(median, spread),
		Tail:  stats.Pareto{Xm: tailStart, Alpha: tailAlpha},
		TailP: tailP,
	}
}

// DefaultExtensions is the 40-extension catalog spanning the paper's 55 most
// popular extensions and 7 categories. Weights target Fig. 4c (Code the most
// numerous category, Docs ≈10% of files) and sizes target Fig. 4b (90% of
// files < 1 MB; compressed/media types largest; >25 MB files carrying ≈80% of
// upload traffic through the A/V and archive tails).
func DefaultExtensions() []ExtProfile {
	const kb, mb = 1 << 10, 1 << 20
	return []ExtProfile{
		// Code: very numerous, tiny, highly compressible.
		{"java", CatCode, 8.0, sizer(4*kb, 4), 0.35},
		{"c", CatCode, 3.0, sizer(6*kb, 4), 0.35},
		{"h", CatCode, 3.5, sizer(3*kb, 3.5), 0.35},
		{"py", CatCode, 8.5, sizer(4*kb, 4), 0.35},
		{"js", CatCode, 3.5, sizer(8*kb, 5), 0.35},
		{"php", CatCode, 2.5, sizer(6*kb, 4), 0.35},
		{"cpp", CatCode, 2.0, sizer(8*kb, 4), 0.35},
		{"html", CatCode, 3.0, sizer(10*kb, 5), 0.3},
		{"css", CatCode, 2.0, sizer(6*kb, 4), 0.3},
		// Pictures: sub-MB bodies, already compressed.
		{"jpg", CatPics, 8.5, sizer(450*kb, 2.5), 0.98},
		{"png", CatPics, 5.0, sizer(300*kb, 4), 0.97},
		{"gif", CatPics, 3.0, sizer(60*kb, 4), 0.97},
		{"bmp", CatPics, 0.5, sizer(1.5*mb, 3), 0.5},
		{"svg", CatPics, 1.0, sizer(30*kb, 4), 0.4},
		// Documents: ≈10% of files, 6.9% of bytes.
		{"pdf", CatDocs, 3.0, sizer(300*kb, 6), 0.9},
		{"txt", CatDocs, 5.0, sizer(8*kb, 6), 0.4},
		{"doc", CatDocs, 1.8, sizer(120*kb, 5), 0.6},
		{"docx", CatDocs, 1.2, sizer(100*kb, 5), 0.95},
		{"xls", CatDocs, 0.8, sizer(150*kb, 5), 0.6},
		{"ppt", CatDocs, 0.5, sizer(800*kb, 4), 0.8},
		{"odt", CatDocs, 0.4, sizer(80*kb, 5), 0.95},
		{"tex", CatDocs, 0.7, sizer(15*kb, 4), 0.4},
		// Audio/Video: few files, most bytes (Fig. 4c's storage leader).
		{"mp3", CatAV, 1.8, sizer(4.2*mb, 1.8), 0.99},
		{"wav", CatAV, 0.25, sizer(18*mb, 3), 0.85},
		{"ogg", CatAV, 0.8, sizer(3.5*mb, 2), 0.99},
		{"flac", CatAV, 0.25, sizer(22*mb, 2), 0.98},
		{"avi", CatAV, 0.25, tailedSizer(120*mb, 3, 0.2, 700*mb, 1.6), 0.98},
		{"mp4", CatAV, 0.3, tailedSizer(80*mb, 3, 0.2, 500*mb, 1.6), 0.98},
		{"mkv", CatAV, 0.15, tailedSizer(200*mb, 2.5, 0.25, 1000*mb, 1.5), 0.98},
		// Application/binary.
		{"o", CatBinary, 6.5, sizer(40*kb, 5), 0.5},
		{"so", CatBinary, 1.5, sizer(150*kb, 4), 0.6},
		{"jar", CatBinary, 1.5, sizer(600*kb, 4), 0.95},
		{"exe", CatBinary, 1.0, sizer(700*kb, 4), 0.8},
		{"pyc", CatBinary, 5.0, sizer(12*kb, 3), 0.6},
		{"msf", CatBinary, 0.8, sizer(200*kb, 4), 0.7},
		// Compressed: large and incompressible.
		{"zip", CatCompressed, 1.1, tailedSizer(2*mb, 8, 0.12, 80*mb, 1.5), 0.99},
		{"gz", CatCompressed, 0.9, tailedSizer(1*mb, 8, 0.1, 60*mb, 1.5), 0.99},
		{"tar", CatCompressed, 0.5, tailedSizer(6*mb, 6, 0.12, 100*mb, 1.5), 0.6},
		{"rar", CatCompressed, 0.35, tailedSizer(4*mb, 6, 0.15, 120*mb, 1.5), 0.99},
		// Other / no extension.
		{"log", CatOther, 1.5, sizer(60*kb, 8), 0.25},
		{"dat", CatOther, 1.2, sizer(120*kb, 8), 0.7},
		{"bak", CatOther, 0.8, sizer(250*kb, 8), 0.6},
		{"", CatOther, 2.0, sizer(30*kb, 8), 0.6},
	}
}

// Class is the four-way user classification of §6.1 (after Drago et al.).
type Class uint8

// User classes with the measured population shares.
const (
	Occasional   Class = iota // 85.82% — transfer less than ~10 KB
	UploadOnly                // 7.22%
	DownloadOnly              // 2.34%
	Heavy                     // 4.62%
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Occasional:
		return "occasional"
	case UploadOnly:
		return "upload-only"
	case DownloadOnly:
		return "download-only"
	default:
		return "heavy"
	}
}

// ClassShares returns the population mix of §6.1.
func ClassShares() []float64 { return []float64{0.8582, 0.0722, 0.0234, 0.0462} }

// classParams tunes behavior per class.
type classParams struct {
	// activeP is the probability that a session performs data management
	// (the overall blend must land near the paper's 5.57% active sessions).
	activeP float64
	// upP vs downP split transfer bursts; the remainder are deletes,
	// directory and volume operations.
	upP, downP float64
	// weight samples the user's long-run activity multiplier; its spread
	// across users produces the Gini ≈ 0.89 traffic concentration.
	weight stats.Sampler
	// sessionsPerDay is the base session arrival rate.
	sessionsPerDay float64
}

// classParamsTab holds the four parameter sets, one per class. params
// returns pointers into it: the sets are immutable and identical for every
// user of a class, so sharing one copy avoids embedding the struct (and
// boxing its samplers) in each of a million user rows.
var classParamsTab = [...]classParams{
	Occasional: {
		activeP: 0.0045, upP: 0.40, downP: 0.42,
		weight:         stats.LognormalFromMedian(0.08, 2.5),
		sessionsPerDay: 1.6,
	},
	UploadOnly: {
		activeP: 0.12, upP: 0.70, downP: 0.02,
		weight:         stats.ParetoTailed{Body: stats.LognormalFromMedian(1, 3), Tail: stats.Pareto{Xm: 12, Alpha: 1.05}, TailP: 0.06},
		sessionsPerDay: 2.2,
	},
	DownloadOnly: {
		activeP: 0.12, upP: 0.02, downP: 0.70,
		weight:         stats.ParetoTailed{Body: stats.LognormalFromMedian(1, 3), Tail: stats.Pareto{Xm: 12, Alpha: 1.05}, TailP: 0.06},
		sessionsPerDay: 2.2,
	},
	Heavy: {
		activeP: 0.26, upP: 0.37, downP: 0.40,
		weight:         stats.ParetoTailed{Body: stats.LognormalFromMedian(2, 3.5), Tail: stats.Pareto{Xm: 30, Alpha: 0.85}, TailP: 0.10},
		sessionsPerDay: 3.4,
	},
}

func params(c Class) *classParams {
	if int(c) < 0 || int(c) >= len(classParamsTab) {
		c = Heavy
	}
	return &classParamsTab[c]
}

// Profile bundles every distribution the generator draws from.
type Profile struct {
	Extensions []ExtProfile
	extPick    *stats.Categorical
	popPick    *stats.Categorical

	// SessionLength: 32% sub-second (NAT churn), lognormal body, 97% < 8 h.
	ShortSessionP float64
	ShortSession  stats.Sampler
	SessionBody   stats.Sampler

	// Burst structure inside active sessions.
	OpsPerActiveSession stats.Sampler // long-tailed (Fig. 16 inner plot)
	BatchSize           stats.Sampler // files per directory-granularity burst
	IntraBurstGap       stats.Sampler // seconds between ops of one burst
	InterBurstGap       stats.Sampler // the Fig. 9 power-law tail

	// Content popularity: dedup hits come from a Zipf universe.
	PopularContentP float64
	ZipfS           float64
	ZipfN           uint64

	// UpdateP is the chance a non-edit upload rewrites an existing file.
	UpdateP float64
	// EditBurstP makes an upload burst an "edit session" on one file: the
	// burst re-uploads the same node repeatedly (save cycles), producing
	// the paper's dominant WAW dependency class (Fig. 3a).
	EditBurstP float64
	// EditNewVersionP is the chance an edit-re-upload carries new content
	// (an update, §5.1) rather than the same hash (a no-change re-upload).
	EditNewVersionP float64
	// DeleteP scales deletion pressure (§5.2: ≈29% of new files die within
	// the month).
	DeleteP float64
	// SyncBackP models the user's other device fetching freshly uploaded
	// files (the RAW dependency of Fig. 3a).
	SyncBackP float64
	// UDFP is the chance an active session creates a UDF until the user
	// reaches its UDF budget (58% of users have at least one).
	UDFP float64
	// ShareP governs share creation (1.8% of users, §6.3).
	ShareP float64

	// Diurnal modulation (§5.1, §7.3).
	Sessions stats.Diurnal
	Activity stats.Diurnal
}

// DefaultProfile returns the calibrated profile.
func DefaultProfile() *Profile {
	p := &Profile{
		Extensions:    DefaultExtensions(),
		ShortSessionP: 0.32,
		ShortSession:  stats.Uniform{Lo: 0.05, Hi: 1.0},
		SessionBody: stats.ParetoTailed{
			Body:  stats.LognormalFromMedian(45*60, 3.2), // 45 min median
			Tail:  stats.Pareto{Xm: 8 * 3600, Alpha: 1.6},
			TailP: 0.035,
		},
		OpsPerActiveSession: stats.BoundedPareto{Xm: 11, Cap: 50000, Alpha: 0.66},
		BatchSize:           stats.ParetoTailed{Body: stats.LognormalFromMedian(2.5, 2), Tail: stats.Pareto{Xm: 25, Alpha: 1.6}, TailP: 0.08},
		IntraBurstGap:       stats.LognormalFromMedian(1.2, 3),
		InterBurstGap: stats.ParetoTailed{
			Body:  stats.LognormalFromMedian(8, 3),
			Tail:  stats.Pareto{Xm: 41.37, Alpha: 0.54}, // Fig. 9b upload fit
			TailP: 0.35,
		},
		EditBurstP:      0.33,
		EditNewVersionP: 0.32,
		PopularContentP: 0.18,
		ZipfS:           1.35,
		ZipfN:           0, // auto: scales with the population

		UpdateP:   0.04,
		DeleteP:   0.30,
		SyncBackP: 0.28,
		UDFP:      0.10,
		ShareP:    0.0025,
		Sessions: stats.Diurnal{
			PeakHour: 13, Amplitude: 3.2, MondayBoost: 0.08, WeekendDip: 0.07,
		},
		Activity: stats.Diurnal{
			PeakHour: 14, Amplitude: 3.5, MondayBoost: 0.06, WeekendDip: 0.07,
		},
	}
	weights := make([]float64, len(p.Extensions))
	for i, e := range p.Extensions {
		weights[i] = e.Weight
	}
	p.extPick = stats.NewCategorical(weights...)
	return p
}

// PickExtension samples an extension profile.
func (p *Profile) PickExtension(r stats.Rand) *ExtProfile {
	return &p.Extensions[p.extPick.Draw(r)]
}

// popularExtNames weights the extensions of widely shared content: songs,
// videos, archives and installers — the media files behind U1's dedup hot
// spots (§5.3: "a small number of files accounts for a very large number of
// duplicates (e.g. popular songs)").
var popularExtNames = []struct {
	ext string
	w   float64
}{
	{"mp3", 2.0}, {"jpg", 5.0}, {"zip", 0.8}, {"mp4", 0.4},
	{"avi", 0.25}, {"exe", 1.0}, {"pdf", 2.5}, {"png", 3.0},
}

// PickPopularExtension samples the extension of a popular (shared) content.
func (p *Profile) PickPopularExtension(r stats.Rand) *ExtProfile {
	if p.popPick == nil {
		weights := make([]float64, len(popularExtNames))
		for i, pe := range popularExtNames {
			weights[i] = pe.w
		}
		p.popPick = stats.NewCategorical(weights...)
	}
	return p.ExtByName(popularExtNames[p.popPick.Draw(r)].ext)
}

// ExtByName resolves an extension profile by its extension string; unknown
// extensions resolve to the catch-all empty profile.
func (p *Profile) ExtByName(ext string) *ExtProfile {
	for i := range p.Extensions {
		if p.Extensions[i].Ext == ext {
			return &p.Extensions[i]
		}
	}
	return &p.Extensions[len(p.Extensions)-1]
}

// extIndex returns e's catalog index (the catch-all when e is not a catalog
// entry). Catalog entries are handed out as &p.Extensions[i], so pointer
// identity is the lookup key; the compact fileRef representation stores this
// index instead of the pointer.
func (p *Profile) extIndex(e *ExtProfile) uint16 {
	for i := range p.Extensions {
		if &p.Extensions[i] == e {
			return uint16(i)
		}
	}
	return uint16(len(p.Extensions) - 1)
}

// extIndexByName returns the catalog index whose Ext matches exactly, with
// no catch-all fallback — callers that must reconstruct a name byte-for-byte
// use the miss to fall back to whole-name interning.
func (p *Profile) extIndexByName(ext string) (uint16, bool) {
	for i := range p.Extensions {
		if p.Extensions[i].Ext == ext {
			return uint16(i), true
		}
	}
	return 0, false
}

// extIndexLoose is extIndex keyed by name: the exact match when the catalog
// has one, the catch-all otherwise — ExtByName's semantics as an index.
func (p *Profile) extIndexLoose(ext string) uint16 {
	if i, ok := p.extIndexByName(ext); ok {
		return i
	}
	return uint16(len(p.Extensions) - 1)
}

// PickClass samples a user class with the §6.1 shares.
func PickClass(r stats.Rand) Class {
	u := r.Float64()
	shares := ClassShares()
	acc := 0.0
	for i, s := range shares {
		acc += s
		if u < acc {
			return Class(i)
		}
	}
	return Heavy
}
