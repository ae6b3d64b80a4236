// Package blob implements the data store of U1: a stand-in for Amazon S3
// (us-east) where all file contents live, while Canonical's datacenter keeps
// only metadata (§3.2). The store is content-addressed (keys are SHA-1 hex
// strings), supports single-shot puts for small contents and the multipart
// upload API that the U1 uploadjob machinery drives (appendix A): initiate,
// upload part, complete, abort. Callers that hold the 20-byte hash itself
// use the *Hash entry points and skip the round trip through its hex form;
// PutHash(h, …) and PutObject(hex(h), …) name the same object.
//
// Two storage modes exist. With KeepData the store retains real bytes — what
// the TCP server and examples use. Without it only sizes are retained, so a
// simulated month of U1 traffic (hundreds of TB logical) fits in memory while
// exercising identical code paths; reads then return deterministic
// pseudo-content of the right size.
//
// Buffer ownership. An object with data is its parts, as S3 keeps a multipart
// object: every part is PartSize long except the last. Stored bytes are
// immutable: an object's parts are written once, before it becomes visible,
// and an overwrite or delete replaces the map entry without touching the old
// bytes. PutHash adopts the slice it is given and cuts it into parts without
// copying; UploadPart keeps each part it is given, and
// CompleteMultipartUpload commits that list of parts as the object. Either
// way the caller hands the bytes over and must not modify them afterwards.
// (The store keeps multipart parts as uploaded; the API server holds every
// part but the last to PartSize.) PutObject copies its argument — the
// store's copy is the only one — so its caller may reuse the buffer.
// PartsHash returns the stored parts themselves, shared by every reader and
// read-only: a caller that wants to modify them copies first. GetObject
// returns a one-part object's stored bytes the same way, and joins a
// multi-part object into a fresh buffer.
package blob

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"u1/internal/metrics"
)

// PartSize is the multipart chunk size used by U1 (appendix A: 5 MB).
const PartSize = 5 << 20

// Store errors.
var (
	ErrNoSuchKey    = errors.New("blob: no such key")
	ErrNoSuchUpload = errors.New("blob: no such multipart upload")
	ErrPartGap      = errors.New("blob: non-contiguous part number")
)

// Config parameterizes the store.
type Config struct {
	// KeepData retains object bytes. Disable for large-scale simulation.
	KeepData bool
	// Metrics receives put/get byte counters, object-size distribution and
	// operation latency (nil disables registration).
	Metrics *metrics.Registry
}

// Counters aggregates the request accounting a provider bills by — the paper
// notes U1's ≈$20,000 monthly S3 bill made it the largest European S3
// customer.
type Counters struct {
	Puts, Gets, Deletes          uint64
	MultipartCreated             uint64
	MultipartCompleted           uint64
	MultipartAborted             uint64
	PartsUploaded                uint64
	BytesIn, BytesOut, BytesHeld uint64
	Objects                      uint64
}

// blobMetrics holds the store's registered handles: logical transfer volume
// (what the provider bills), the object size distribution, and the wall-time
// cost of store operations on this host.
type blobMetrics struct {
	putBytes    *metrics.Counter
	getBytes    *metrics.Counter
	deletes     *metrics.Counter
	objectBytes *metrics.Histogram
	putSeconds  *metrics.Histogram
	getSeconds  *metrics.Histogram
	objectsHeld *metrics.Gauge
}

// Store is the object store.
type Store struct {
	cfg Config
	m   blobMetrics

	mu sync.RWMutex
	// Content-addressed keys are 40-char SHA-1 hex strings; storing them
	// decoded keeps 20 bytes per object instead of a 56-byte heap string, and
	// at million-user populations the key bytes would otherwise rival the
	// objects themselves. Sizes live in their own map so the common metered
	// mode pays 8 bytes per object, not a 32-byte object struct; hashParts
	// only fills in KeepData mode. Non-canonical keys (tests, ad-hoc callers)
	// fall back to the string map; a key lives in exactly one of the layouts.
	hashSizes map[[20]byte]uint64
	hashParts map[[20]byte][][]byte
	objects   map[string]object
	uploads   map[string]*multipartUpload
	nextID    uint64
	counters  Counters
}

type object struct {
	size  uint64
	parts [][]byte // nil unless KeepData
}

// objectKey is a key in one of the two layouts: a content hash (canonical
// 40-char lowercase SHA-1 hex on the string-keyed API, the raw hash on the
// hash-keyed one) or any other string.
type objectKey struct {
	hash   [20]byte
	str    string
	hashed bool
}

// keyOf classifies a string key. Uppercase hex is not canonical, so that
// distinct string keys can never collide after decoding.
func keyOf(key string) objectKey {
	if len(key) != 40 {
		return objectKey{str: key}
	}
	k := objectKey{hashed: true}
	for i := 0; i < 40; i += 2 {
		hi, ok1 := hexNibble(key[i])
		lo, ok2 := hexNibble(key[i+1])
		if !ok1 || !ok2 {
			return objectKey{str: key}
		}
		k.hash[i/2] = hi<<4 | lo
	}
	return k
}

func hashKey(h [20]byte) objectKey { return objectKey{hash: h, hashed: true} }

// String returns the key as the string-keyed API spells it.
func (k objectKey) String() string {
	if k.hashed {
		return hex.EncodeToString(k.hash[:])
	}
	return k.str
}

func hexNibble(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

func (s *Store) loadObject(k objectKey) (object, bool) {
	if k.hashed {
		size, ok := s.hashSizes[k.hash]
		if !ok {
			return object{}, false
		}
		return object{size: size, parts: s.hashParts[k.hash]}, true
	}
	obj, ok := s.objects[k.str]
	return obj, ok
}

func (s *Store) storeObject(k objectKey, obj object) {
	if k.hashed {
		s.hashSizes[k.hash] = obj.size
		if obj.parts != nil {
			s.hashParts[k.hash] = obj.parts
		} else {
			delete(s.hashParts, k.hash) // overwrite may flip a kept object to size-only
		}
		return
	}
	s.objects[k.str] = obj
}

func (s *Store) removeObject(k objectKey) {
	if k.hashed {
		delete(s.hashSizes, k.hash)
		delete(s.hashParts, k.hash)
		return
	}
	delete(s.objects, k.str)
}

type multipartUpload struct {
	key     objectKey
	size    uint64
	parts   int
	chunks  [][]byte  // the parts as handed over; empty unless KeepData
	touched time.Time // its start or its latest part, whichever is later
}

// partsOf cuts data into the parts an object is stored as, PartSize each but
// the last, without copying.
func partsOf(data []byte) [][]byte {
	if len(data) == 0 {
		return nil
	}
	parts := make([][]byte, 0, (len(data)+PartSize-1)/PartSize)
	for len(data) > PartSize {
		parts = append(parts, data[:PartSize:PartSize])
		data = data[PartSize:]
	}
	return append(parts, data)
}

// New creates an empty store.
func New(cfg Config) *Store {
	return &Store{
		cfg: cfg,
		m: blobMetrics{
			putBytes:    cfg.Metrics.Counter(metrics.BlobPutBytes),
			getBytes:    cfg.Metrics.Counter(metrics.BlobGetBytes),
			deletes:     cfg.Metrics.Counter(metrics.BlobDeletes),
			objectBytes: cfg.Metrics.Histogram(metrics.BlobObjectBytes),
			putSeconds:  cfg.Metrics.Histogram(metrics.BlobPutSeconds),
			getSeconds:  cfg.Metrics.Histogram(metrics.BlobGetSeconds),
			objectsHeld: cfg.Metrics.Gauge(metrics.BlobObjectsHeld),
		},
		hashSizes: make(map[[20]byte]uint64),
		hashParts: make(map[[20]byte][][]byte),
		objects:   make(map[string]object),
		uploads:   make(map[string]*multipartUpload),
	}
}

// PutObject stores a copy of data under key in one shot.
func (s *Store) PutObject(key string, data []byte) error {
	return s.put(keyOf(key), bytes.Clone(data))
}

// PutHash stores data as the content with hash h in one shot (used for
// contents at or below one part). The store adopts data: the caller hands it
// over.
func (s *Store) PutHash(h [20]byte, data []byte) error { return s.put(hashKey(h), data) }

// put stores data, which it adopts.
func (s *Store) put(k objectKey, data []byte) error {
	took := metrics.StartStopwatch()
	var parts [][]byte
	if s.cfg.KeepData {
		parts = partsOf(data)
	}
	s.mu.Lock()
	s.putLocked(k, uint64(len(data)), parts)
	s.mu.Unlock()
	s.recordPut(uint64(len(data)), took)
	return nil
}

// PutObjectSized stores a size-only object (metered mode helper for the
// simulator, which never materializes contents).
func (s *Store) PutObjectSized(key string, size uint64) error { return s.putSized(keyOf(key), size) }

// PutHashSized is PutObjectSized for the content with hash h.
func (s *Store) PutHashSized(h [20]byte, size uint64) error { return s.putSized(hashKey(h), size) }

func (s *Store) putSized(k objectKey, size uint64) error {
	took := metrics.StartStopwatch()
	s.mu.Lock()
	s.putLocked(k, size, nil)
	s.mu.Unlock()
	s.recordPut(size, took)
	return nil
}

func (s *Store) recordPut(size uint64, took metrics.Stopwatch) {
	s.m.putBytes.Add(size)
	s.m.objectBytes.Observe(float64(size))
	took.Observe(s.m.putSeconds)
}

// putLocked stores an object whose parts (nil for size-only) the store
// already owns.
func (s *Store) putLocked(k objectKey, size uint64, parts [][]byte) {
	s.commitLocked(k, object{size: size, parts: parts})
	s.counters.Puts++
	s.counters.BytesIn += size
}

// commitLocked makes obj the content of key and settles the held-object
// accounting.
func (s *Store) commitLocked(k objectKey, obj object) {
	if old, ok := s.loadObject(k); ok {
		// Content-addressed keys make overwrites idempotent; adjust held
		// bytes in case sizes differ (they cannot for honest SHA-1 keys).
		s.counters.BytesHeld -= old.size
		s.counters.Objects--
	}
	s.storeObject(k, obj)
	s.counters.BytesHeld += obj.size
	s.counters.Objects++
	s.m.objectsHeld.Set(int64(s.counters.Objects))
}

// GetObject returns the object's bytes: a one-part object's stored slice
// itself, shared with every other reader and read-only, or the parts of a
// larger one joined into a fresh buffer.
func (s *Store) GetObject(key string) ([]byte, error) {
	parts, err := s.get(keyOf(key))
	switch len(parts) {
	case 0:
		return nil, err
	case 1:
		return parts[0], nil
	}
	return bytes.Join(parts, nil), nil
}

// PartsHash returns the parts of the content with hash h, in order: the
// stored slices themselves, shared with every other reader and read-only. In
// metered mode they are deterministic pseudo-content of the recorded size,
// cut at PartSize.
func (s *Store) PartsHash(h [20]byte) ([][]byte, error) { return s.get(hashKey(h)) }

func (s *Store) get(k objectKey) ([][]byte, error) {
	took := metrics.StartStopwatch()
	s.mu.Lock()
	obj, ok := s.loadObject(k)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchKey, k)
	}
	s.counters.Gets++
	s.counters.BytesOut += obj.size
	s.mu.Unlock()
	out := obj.parts
	if out == nil {
		out = partsOf(synthesize(k.String(), obj.size))
	}
	s.m.getBytes.Add(obj.size)
	took.Observe(s.m.getSeconds)
	return out, nil
}

// HeadHash returns the size of the content with hash h without transferring
// it.
func (s *Store) HeadHash(h [20]byte) (uint64, error) { return s.head(hashKey(h)) }

func (s *Store) head(k objectKey) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.loadObject(k)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchKey, k)
	}
	return obj.size, nil
}

// DeleteHash removes the content with hash h; deleting a missing object is a
// no-op, as in S3.
func (s *Store) DeleteHash(h [20]byte) { s.remove(hashKey(h)) }

func (s *Store) remove(k objectKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.loadObject(k); ok {
		s.counters.BytesHeld -= obj.size
		s.counters.Objects--
		s.removeObject(k)
		s.m.objectsHeld.Set(int64(s.counters.Objects))
	}
	s.counters.Deletes++
	s.m.deletes.Inc()
}

// CreateMultipartHash starts a multipart upload towards the content with
// hash h and returns the multipart id that the metadata store records on the
// uploadjob (dal.set_uploadjob_multipart_id).
func (s *Store) CreateMultipartHash(h [20]byte, now time.Time) string {
	return s.createMultipart(hashKey(h), now)
}

func (s *Store) createMultipart(k objectKey, now time.Time) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("mp-%d", s.nextID)
	s.uploads[id] = &multipartUpload{key: k, touched: now}
	s.counters.MultipartCreated++
	return id
}

// UploadPart appends one part, arriving at now. Parts must arrive in order
// (1-based, contiguous), which is how the U1 API server streams them. The
// store keeps data itself, not a copy: once the upload completes it is one
// of the object's parts.
func (s *Store) UploadPart(id string, partNum int, data []byte, now time.Time) error {
	return s.uploadPart(id, partNum, uint64(len(data)), data, now)
}

// UploadPartSized appends a size-only part (metered mode).
func (s *Store) UploadPartSized(id string, partNum int, size uint64, now time.Time) error {
	return s.uploadPart(id, partNum, size, nil, now)
}

func (s *Store) uploadPart(id string, partNum int, size uint64, data []byte, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchUpload, id)
	}
	if partNum != up.parts+1 {
		return fmt.Errorf("%w: got part %d after %d", ErrPartGap, partNum, up.parts)
	}
	up.parts++
	up.size += size
	up.touched = now
	if s.cfg.KeepData && len(data) > 0 {
		up.chunks = append(up.chunks, data)
	}
	s.counters.PartsUploaded++
	s.counters.BytesIn += size
	s.m.putBytes.Add(size)
	return nil
}

// CompleteMultipartUpload commits the accumulated parts as the object, as
// they were handed over: nothing is copied.
func (s *Store) CompleteMultipartUpload(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchUpload, id)
	}
	delete(s.uploads, id)
	// BytesIn was already counted per part; commit without recounting.
	s.commitLocked(up.key, object{size: up.size, parts: up.chunks})
	s.counters.MultipartCompleted++
	s.m.objectBytes.Observe(float64(up.size))
	return nil
}

// AbortMultipartUpload discards an in-flight upload (client cancellation or
// the weekly uploadjob garbage collection).
func (s *Store) AbortMultipartUpload(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.uploads[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchUpload, id)
	}
	delete(s.uploads, id)
	s.counters.MultipartAborted++
	return nil
}

// AbandonedUploads returns the ids of multipart uploads neither started nor
// given a part since cutoff, for garbage collection sweeps.
func (s *Store) AbandonedUploads(cutoff time.Time) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []string
	for id, up := range s.uploads {
		if up.touched.Before(cutoff) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Counters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counters
}

// synthesize produces deterministic pseudo-content for metered objects: the
// key bytes repeated. Only used when the store holds no real data.
func synthesize(key string, size uint64) []byte {
	if size == 0 {
		return nil
	}
	out := make([]byte, size)
	kb := []byte(key)
	if len(kb) == 0 {
		return out
	}
	for i := 0; i < len(out); i += len(kb) {
		copy(out[i:], kb)
	}
	return out
}

// TransferModel estimates WAN transfer times between the datacenter and the
// data store. U1 ran in Canonical's London datacenter against S3 us-east; the
// defaults approximate that path. The apiserver uses these estimates to
// shape simulated service times for data operations.
type TransferModel struct {
	RTT       time.Duration // request round-trip latency
	Bandwidth float64       // sustained bytes/second
}

// DefaultTransferModel approximates a transatlantic path: 80 ms RTT and
// 50 MB/s sustained.
func DefaultTransferModel() TransferModel {
	return TransferModel{RTT: 80 * time.Millisecond, Bandwidth: 50e6}
}

// Time returns the estimated wall time to move size bytes in one direction.
func (m TransferModel) Time(size uint64) time.Duration {
	if m.Bandwidth <= 0 {
		return m.RTT
	}
	return m.RTT + time.Duration(float64(size)/m.Bandwidth*float64(time.Second))
}
