package metadata

import "sync"

import "u1/internal/protocol"

// contentRegistry is the cross-shard catalog of unique file contents keyed by
// SHA-1. U1 applies file-based cross-user deduplication (§3.3): before a
// client uploads, the server checks whether the hash already exists; on a hit
// the new file is logically linked to the existing content and no transfer
// happens. Reference counts decide when a blob may be garbage collected from
// the data store.
// Rows are stored by value: a pointer per unique content is a separate heap
// object and, at million-user populations, measurable overhead for a
// one-word payload. The map materializes on the first addRef, so a zero
// value works without a constructor.
type contentRegistry struct {
	mu   sync.RWMutex
	rows map[protocol.Hash]contentRow

	// logicalBytes counts every reference's size (what users think they
	// store); uniqueBytes counts stored-once sizes. Their ratio yields the
	// paper's deduplication ratio dr = 1 − unique/total (§5.3).
	logicalBytes uint64
	uniqueBytes  uint64
}

// contentRow packs a content's size and reference count into one word: the
// low 40 bits hold the size (the workload caps uploads at 4 GB, so a
// terabyte of headroom), the high 24 bits the refcount. The campaign holds
// ~10 unique contents per user, so the 8 bytes saved per row over a
// two-field struct is ~64 bytes per map bucket — real memory at a million
// users. A refcount reaching the 24-bit ceiling saturates and the row
// becomes immortal (release never frees it): semantically safe, and it
// takes ~16.7M links to a single hash to happen.
type contentRow uint64

const (
	contentSizeBits = 40
	contentSizeMask = 1<<contentSizeBits - 1
	contentRefsMax  = 1<<(64-contentSizeBits) - 1
)

func newContentRow(size, refs uint64) contentRow {
	if size > contentSizeMask {
		panic("metadata: content size exceeds 40 bits")
	}
	return contentRow(refs<<contentSizeBits | size)
}

func (r contentRow) size() uint64 { return uint64(r) & contentSizeMask }
func (r contentRow) refs() uint64 { return uint64(r) >> contentSizeBits }

// lookup reports whether the hash is already stored, and its size.
func (c *contentRegistry) lookup(h protocol.Hash) (size uint64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	row, ok := c.rows[h]
	if !ok {
		return 0, false
	}
	return row.size(), true
}

// addRef links one more file to the content, creating the row when the
// content is new.
func (c *contentRegistry) addRef(h protocol.Hash, size uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.rows[h]
	if ok {
		if row.refs() < contentRefsMax {
			c.rows[h] = newContentRow(row.size(), row.refs()+1)
		}
		c.logicalBytes += row.size()
		return
	}
	if c.rows == nil {
		c.rows = make(map[protocol.Hash]contentRow)
	}
	c.rows[h] = newContentRow(size, 1)
	c.logicalBytes += size
	c.uniqueBytes += size
}

// release drops one reference. When the last reference goes away the row is
// removed and release returns true: the caller should delete the blob from
// the data store.
func (c *contentRegistry) release(h protocol.Hash) (freed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.rows[h]
	if !ok {
		return false
	}
	c.logicalBytes -= row.size()
	if row.refs() >= contentRefsMax {
		return false // saturated: the row is immortal
	}
	if row.refs() > 1 {
		c.rows[h] = newContentRow(row.size(), row.refs()-1)
		return false
	}
	c.uniqueBytes -= row.size()
	delete(c.rows, h)
	return true
}

// ContentStats summarizes the dedup catalog.
type ContentStats struct {
	UniqueContents int
	LogicalBytes   uint64
	UniqueBytes    uint64
}

// DedupRatio returns dr = 1 − unique/total bytes, the paper's §5.3 metric
// (0.171 over the U1 month).
func (s ContentStats) DedupRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return 1 - float64(s.UniqueBytes)/float64(s.LogicalBytes)
}

func (c *contentRegistry) stats() *ContentStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return &ContentStats{
		UniqueContents: len(c.rows),
		LogicalBytes:   c.logicalBytes,
		UniqueBytes:    c.uniqueBytes,
	}
}
