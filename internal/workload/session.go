package workload

import (
	"fmt"
	"time"

	"u1/internal/protocol"
	"u1/internal/stats"
)

// action enumerates what a burst does. Users manage data at directory
// granularity (§6.2), so one burst issues several correlated operations of
// the same kind — the behavior behind the transfer→transfer self-loops of
// Fig. 8 and the non-Poisson inter-arrival times of Fig. 9.
type action uint8

const (
	actUpload action = iota
	actDownload
	actDelete
	actMkdir
	actMove
	actUDF
	actShare
	actDeleteVolume
)

// sessionRun executes one active session's operations as a chain of
// simulator events: one operation per event, separated by intra-burst gaps
// within a burst and the power-law inter-burst gaps between bursts.
type sessionRun struct {
	g       *Generator
	u       *user
	end     time.Time
	opsLeft int
	// next is step as a func value, bound once: binding it anew at each
	// reschedule would allocate a closure per operation.
	next func()

	burstLeft int
	burstAct  action
	burstVol  protocol.VolumeID
	burstDir  protocol.NodeID
	// editFile is set for edit bursts: the burst re-uploads this one file
	// (save cycles), the behavior behind the WAW dominance of Fig. 3a.
	editFile *fileRef
}

func (s *sessionRun) step() {
	g, u := s.g, s.u
	now := u.sh.eng.Now()
	if !u.online || s.opsLeft <= 0 || !now.Before(s.end) {
		return // the scheduled endSession event handles disconnect
	}
	if s.burstLeft <= 0 {
		s.newBurst()
	}
	s.executeOne()
	s.opsLeft--
	s.burstLeft--

	var gap = g.intraGap(u)
	if s.burstLeft <= 0 {
		gap = g.interGap(u)
	}
	u.sh.eng.After(gap, s.next)
}

// newBurst picks the next burst's action, volume and directory.
func (s *sessionRun) newBurst() {
	u := s.u
	r := u.rng
	s.burstAct = s.pickAction(r)
	s.burstVol = s.pickVolume(r)
	s.burstDir = s.pickDir(r, s.burstVol)
	s.editFile = nil
	if s.burstAct == actUpload && len(u.recent) > 0 && r.Float64() < s.g.prof.EditBurstP {
		// Edit session: repeatedly save one file.
		f := u.recent[r.Intn(len(u.recent))]
		s.editFile = &f
	} else if s.burstAct == actUpload && r.Float64() < 0.5 {
		// Directory-granularity sync: the burst lands in a fresh directory,
		// which keeps per-volume file and directory counts proportional
		// (the Fig. 10 correlation of 0.998).
		u.seq++
		if dir, err := u.cli.Mkdir(s.burstVol, s.burstDir, fmt.Sprintf("d%d-%d", u.id, u.seq)); err == nil {
			u.addDir(s.burstVol, dir.ID)
			s.burstDir = dir.ID
		}
	}
	k := int(s.g.prof.BatchSize.Sample(r))
	if k < 1 {
		k = 1
	}
	switch s.burstAct {
	case actUpload, actDownload, actDelete:
		// directory-granularity work: several files in a row
	default:
		k = 1
	}
	if k > s.opsLeft {
		k = s.opsLeft
	}
	s.burstLeft = k
}

func (s *sessionRun) pickAction(r stats.Rand) action {
	u := s.u
	p := r.Float64()
	switch {
	case p < u.par.upP:
		return actUpload
	case p < u.par.upP+u.par.downP:
		return actDownload
	default:
		rest := r.Float64()
		switch {
		case rest < 0.58:
			return actDelete
		case rest < 0.75:
			return actMkdir
		case rest < 0.87:
			return actMove
		case rest < 0.89+s.g.prof.UDFP/2:
			return actUDF
		case rest < 0.89+s.g.prof.UDFP/2+s.g.prof.ShareP:
			return actShare
		case rest < 0.99:
			return actDownload
		default:
			return actDeleteVolume
		}
	}
}

// pickVolume prefers the root volume but exercises UDFs when present.
func (s *sessionRun) pickVolume(r stats.Rand) protocol.VolumeID {
	u := s.u
	root, ok := u.cli.RootVolume()
	if !ok {
		return 0
	}
	if len(u.udfVols) > 0 && r.Float64() < 0.3 {
		return u.udfVols[r.Intn(len(u.udfVols))]
	}
	return root
}

func (s *sessionRun) pickDir(r stats.Rand, vol protocol.VolumeID) protocol.NodeID {
	dirs := s.u.dirs[vol]
	if len(dirs) == 0 || r.Float64() < 0.35 {
		return 0 // volume root
	}
	return dirs[r.Intn(len(dirs))]
}

func (s *sessionRun) executeOne() {
	switch s.burstAct {
	case actUpload:
		s.doUpload()
	case actDownload:
		s.doDownload()
	case actDelete:
		s.doDelete()
	case actMkdir:
		s.doMkdir()
	case actMove:
		s.doMove()
	case actUDF:
		s.doUDF()
	case actShare:
		s.doShare()
	case actDeleteVolume:
		s.doDeleteVolume()
	}
}

// doUpload writes one file: an edit-burst save of one file, an update of a
// recent file, or a fresh upload (§5.1).
func (s *sessionRun) doUpload() {
	g, u := s.g, s.u
	r := u.rng

	if s.editFile != nil {
		// Save cycle: re-upload the same node. Sometimes the content really
		// changed (an update); often it is the same bytes again (clients
		// re-send on metadata changes, §5.1's .mp3-tagging observation).
		f := *s.editFile
		var h protocol.Hash
		var size uint64
		if r.Float64() < g.prof.EditNewVersionP {
			u.seq++
			h = protocol.HashBytes([]byte(fmt.Sprintf("u%d-v%d", u.id, u.seq)))
			size = versionedSize(u, f, r)
		} else {
			// Unchanged content: dedup makes this transfer-free.
			h, size = currentContent(u, f)
		}
		u.cli.UploadSized(f.vol, parentOf(u, f), f.fileName(u.sh), h, size, wireSize(f.extProfile(u.sh), size)) //nolint:errcheck
		u.sh.totals.Uploads++
		return
	}

	if len(u.recent) > 1 && r.Float64() < g.prof.UpdateP {
		// Standalone update, biased to the largest of three candidates:
		// media re-uploads dominate update traffic (§5.1: 18.5% of bytes).
		f := u.recent[r.Intn(len(u.recent))]
		for i := 0; i < 2; i++ {
			c := u.recent[r.Intn(len(u.recent))]
			if sizeOf(u, c) > sizeOf(u, f) {
				f = c
			}
		}
		u.seq++
		h := protocol.HashBytes([]byte(fmt.Sprintf("u%d-v%d", u.id, u.seq)))
		size := versionedSize(u, f, r)
		u.cli.UploadSized(f.vol, parentOf(u, f), f.fileName(u.sh), h, size, wireSize(f.extProfile(u.sh), size)) //nolint:errcheck
		u.sh.totals.Uploads++
		return
	}

	ext := g.prof.PickExtension(r)
	size := biasSize(sampleSize(ext, r), u.sizeBias)
	h := g.pickHash(u, &ext, &size)
	u.seq++
	name := fmt.Sprintf("f%d-%d", u.id, u.seq)
	if ext.Ext != "" {
		name += "." + ext.Ext
	}
	vol, dir := s.burstVol, s.burstDir
	node, _, err := u.cli.UploadSized(vol, dir, name, h, size, wireSize(ext, size))
	if err != nil {
		return
	}
	u.sh.totals.Uploads++
	// pickHash may have swapped ext for a popular catalog entry; the name was
	// built from the post-swap ext, so one catalog index serves both roles.
	idx := g.prof.extIndex(ext)
	f := fileRef{vol: vol, node: node.ID, parent: dir,
		uid: uint32(u.id), seq: uint32(u.seq), kind: 'f', ext: idx, nameExt: idx}
	u.remember(f)
	u.files = append(u.files, f)

	// The user's other device fetches the new file shortly after — the RAW
	// dependency of Fig. 3a. Upload-only users have no consuming device
	// (that is what makes them upload-only).
	if u.class != UploadOnly && r.Float64() < g.prof.SyncBackP {
		secs := stats.LognormalFromMedian(90, 5).Sample(r)
		nodeID := node.ID
		sessionID := u.cli.Session()
		u.sh.eng.After(time.Duration(secs*float64(time.Second)), func() {
			// Only within the same session: the paired device reacted to the
			// push while this connection was alive.
			if u.online && u.cli != nil && u.cli.Session() == sessionID {
				if _, err := u.cli.Download(vol, nodeID); err == nil {
					u.sh.totals.Downloads++
				}
			}
		})
	}
}

// doDownload reads a file: recent files dominate (short RAR times), the rest
// comes uniformly from the mirror with a bias towards the user's first
// files, which become long-tail favorites (Fig. 3b inset).
func (s *sessionRun) doDownload() {
	u := s.u
	r := u.rng
	var vol protocol.VolumeID
	var node protocol.NodeID
	var stale = -1
	switch {
	case len(u.recent) > 0 && r.Float64() < 0.35:
		f := u.recent[r.Intn(len(u.recent))]
		vol, node = f.vol, f.node
	case len(u.files) > 0 && r.Float64() < 0.12:
		// Long-run favorites: a small stable set of repeatedly read files
		// (the Fig. 3b download tail).
		k := len(u.files)
		if k > 5 {
			k = 5
		}
		f := u.files[r.Intn(k)]
		vol, node = f.vol, f.node
	default:
		i, ok := s.pickFile(r)
		if !ok {
			return
		}
		// Users re-fetch their media more than their notes: prefer the
		// largest of three candidates, which also keeps downloaded bytes in
		// the same league as uploaded bytes (R/W ≈ 1.14, Fig. 2c).
		if c, ok := s.pickFile(r); ok && sizeOf(u, u.files[c]) > sizeOf(u, u.files[i]) {
			i = c
		}
		f := u.files[i]
		vol, node, stale = f.vol, f.node, i
	}
	if _, err := u.cli.Download(vol, node); err == nil {
		u.sh.totals.Downloads++
		// A read keeps the file warm in the user's working set, so later
		// deletes and edits follow reads (the DAR/WAR chains of Fig. 3b).
		if r.Float64() < 0.55 {
			if info, ok := u.cli.Node(vol, node); ok {
				u.remember(u.sh.fileRefFor(vol, node, info.Parent, info.Name))
			}
		}
	} else if stale >= 0 {
		// The file disappeared under us (cascade delete); drop the ref.
		u.files = append(u.files[:stale], u.files[stale+1:]...)
	}
}

// doDelete unlinks a node, biased towards recent files (§5.2: 17% of files
// die within 8 hours). Occasionally a directory goes, cascading.
func (s *sessionRun) doDelete() {
	u := s.u
	r := u.rng
	if dirs := u.dirs[s.burstVol]; len(dirs) > 0 && r.Float64() < 0.12 {
		i := r.Intn(len(dirs))
		dir := dirs[i]
		if err := u.cli.Unlink(s.burstVol, dir); err == nil {
			u.dirs[s.burstVol] = append(dirs[:i], dirs[i+1:]...)
			u.forgetDir(dir)
			u.sh.totals.Deletes++
		}
		return
	}
	var vol protocol.VolumeID
	var node protocol.NodeID
	if len(u.recent) > 0 && r.Float64() < 0.6 {
		i := r.Intn(len(u.recent))
		f := u.recent[i]
		vol, node = f.vol, f.node
		u.recent = append(u.recent[:i], u.recent[i+1:]...)
	} else {
		i, ok := s.pickFile(r)
		if !ok {
			return
		}
		f := u.files[i]
		vol, node = f.vol, f.node
	}
	if err := u.cli.Unlink(vol, node); err == nil {
		u.sh.totals.Deletes++
	}
	u.dropFile(node)
}

func (s *sessionRun) doMkdir() {
	u := s.u
	u.seq++
	name := fmt.Sprintf("d%d-%d", u.id, u.seq)
	node, err := u.cli.Mkdir(s.burstVol, s.burstDir, name)
	if err != nil {
		return
	}
	u.addDir(s.burstVol, node.ID)
}

func (s *sessionRun) doMove() {
	u := s.u
	r := u.rng
	i, ok := s.pickFile(r)
	if !ok {
		return
	}
	f := u.files[i]
	u.seq++
	target := s.pickDir(r, f.vol)
	name := fmt.Sprintf("m%d-%d", u.id, u.seq)
	if _, err := u.cli.Move(f.vol, f.node, target, name); err == nil {
		// A move renames but keeps the content: re-derive the ref from the new
		// name, then carry the pre-move extension profile over.
		nf := u.sh.fileRefFor(f.vol, f.node, target, name)
		nf.ext = f.ext
		u.files[i] = nf
	}
}

func (s *sessionRun) doUDF() {
	u := s.u
	if u.udfs >= u.maxUDFs {
		return
	}
	v, err := u.cli.CreateUDF(fmt.Sprintf("~/UDF-%d-%d", u.id, u.udfs))
	if err != nil {
		return
	}
	u.udfs++
	u.udfVols = append(u.udfVols, v.ID)
}

func (s *sessionRun) doShare() {
	u := s.u
	r := u.rng
	// Share targets come from the user's own shard: cross-user interactions
	// stay inside one deterministic event order, which is what makes the
	// trace reproducible under parallel shards. At Workers=1 the shard
	// population is the whole population, exactly the serial behavior.
	if len(u.sh.users) < 2 {
		return
	}
	to := u.sh.users[r.Intn(len(u.sh.users))]
	if to.id == u.id {
		return
	}
	// Share a UDF when one exists; otherwise nothing to share (U1 users
	// shared folders, not their root volume).
	if len(u.udfVols) == 0 {
		return
	}
	vol := u.udfVols[r.Intn(len(u.udfVols))]
	u.cli.CreateShare(vol, to.id, fmt.Sprintf("s%d", u.id), r.Float64() < 0.3) //nolint:errcheck
}

func (s *sessionRun) doDeleteVolume() {
	u := s.u
	if len(u.udfVols) == 0 {
		return
	}
	vol := u.udfVols[len(u.udfVols)-1]
	if err := u.cli.DeleteVolume(vol); err == nil {
		u.udfVols = u.udfVols[:len(u.udfVols)-1]
		delete(u.dirs, vol)
		u.forgetVolumeNodes(vol)
		if u.udfs > 0 {
			u.udfs--
		}
	}
}

// pickFile picks a uniform index into the user's live file list.
func (s *sessionRun) pickFile(r stats.Rand) (int, bool) {
	if len(s.u.files) == 0 {
		return 0, false
	}
	return r.Intn(len(s.u.files)), true
}

// forgetDir drops recent/live entries whose parent directory was unlinked.
func (u *user) forgetDir(dir protocol.NodeID) {
	live := u.files[:0]
	for _, f := range u.files {
		if f.parent != dir {
			live = append(live, f)
		}
	}
	u.files = live
	rec := u.recent[:0]
	for _, f := range u.recent {
		if f.parent != dir {
			rec = append(rec, f)
		}
	}
	u.recent = rec
}

// dropFile removes a node from the live file list (after a delete).
func (u *user) dropFile(node protocol.NodeID) {
	for i, f := range u.files {
		if f.node == node {
			u.files = append(u.files[:i], u.files[i+1:]...)
			return
		}
	}
}

// remember appends to the recent-file window (bounded per user class). It is
// the single append site for u.recent in the whole package, so the cap below
// is the invariant — audited; every other mutation only removes entries.
func (u *user) remember(f fileRef) {
	u.recent = append(u.recent, f)
	cap := u.recentCap
	if cap < 64 {
		cap = 64
	}
	if len(u.recent) > cap {
		u.recent = u.recent[len(u.recent)-cap:]
	}
}

// forgetVolumeNodes drops recent/live entries of a removed volume.
func (u *user) forgetVolumeNodes(vol protocol.VolumeID) {
	out := u.recent[:0]
	for _, f := range u.recent {
		if f.vol != vol {
			out = append(out, f)
		}
	}
	u.recent = out
	live := u.files[:0]
	for _, f := range u.files {
		if f.vol != vol {
			live = append(live, f)
		}
	}
	u.files = live
}

// parentOf resolves a recent file's parent from the mirror (0 = root).
func parentOf(u *user, f fileRef) protocol.NodeID {
	if info, ok := u.cli.Node(f.vol, f.node); ok {
		return info.Parent
	}
	return 0
}

// biasSize applies the per-user size multiplier to files already above 1 MB:
// heavy users differ by hoarding large media/datasets, not by having bigger
// source files. Sub-MB files keep the global size CDF (90% < 1 MB) intact.
func biasSize(size uint64, bias float64) uint64 {
	if bias == 0 || bias == 1 || size < 1<<20 {
		return size
	}
	out := uint64(float64(size) * bias)
	if out < 1 {
		out = 1
	}
	const cap = 4 << 30
	if out > cap {
		out = cap
	}
	return out
}

func sampleSize(ext *ExtProfile, r stats.Rand) uint64 {
	s := ext.Size.Sample(r)
	if s < 1 {
		s = 1
	}
	const cap = 4 << 30 // 4 GB upload limit
	if s > cap {
		s = cap
	}
	return uint64(s)
}

// versionedSize sizes a new version of an existing file: close to its
// current size (a tag edit re-sends the whole multi-MB file, §5.1), which is
// what makes updates carry 18.5% of upload bytes at 10% of upload ops.
func versionedSize(u *user, f fileRef, r stats.Rand) uint64 {
	cur := sizeOf(u, f)
	if cur == 0 {
		return sampleSize(f.extProfile(u.sh), r)
	}
	factor := 0.85 + 0.3*r.Float64()
	size := uint64(float64(cur) * factor)
	if size < 1 {
		size = 1
	}
	return size
}

// currentContent returns a file's current hash and size from the mirror, so
// an unchanged re-upload offers the content the server already has.
func currentContent(u *user, f fileRef) (protocol.Hash, uint64) {
	if info, ok := u.cli.Node(f.vol, f.node); ok {
		return info.Hash, info.Size
	}
	return protocol.HashBytes([]byte(fmt.Sprintf("u%d-ghost", u.id))), 1
}

// sizeOf reads a file's current size from the mirror.
func sizeOf(u *user, f fileRef) uint64 {
	if info, ok := u.cli.Node(f.vol, f.node); ok {
		return info.Size
	}
	return 0
}

// extFromName extracts the extension of a synthetic file name.
func extFromName(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return ""
}

func wireSize(ext *ExtProfile, size uint64) uint64 {
	w := uint64(float64(size) * ext.Compress)
	if w < 1 {
		w = 1
	}
	if w > size {
		w = size
	}
	return w
}
