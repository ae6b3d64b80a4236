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
// Buffer ownership. Stored bytes are immutable: an object's slice is written
// once, before it becomes visible, and an overwrite or delete replaces the
// map entry without touching the old bytes. PutObject copies its argument —
// the store's copy is the only one — so the caller may reuse the buffer.
// UploadPart keeps the slice it is given until the upload completes or
// aborts: the caller hands it over and must not modify it afterwards;
// CompleteMultipartUpload joins the parts once into an object of exactly
// their size. GetObject returns the stored bytes themselves, shared by every
// reader and read-only: a caller that wants to modify them copies first.
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
	// mode pays 8 bytes per object, not a 32-byte object struct; hashData
	// only fills in KeepData mode. Non-canonical keys (tests, ad-hoc callers)
	// fall back to the string map; a key lives in exactly one of the layouts.
	hashSizes map[[20]byte]uint64
	hashData  map[[20]byte][]byte
	objects   map[string]object
	uploads   map[string]*multipartUpload
	nextID    uint64
	counters  Counters
}

type object struct {
	size uint64
	data []byte // nil unless KeepData
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
		return object{size: size, data: s.hashData[k.hash]}, true
	}
	obj, ok := s.objects[k.str]
	return obj, ok
}

func (s *Store) storeObject(k objectKey, obj object) {
	if k.hashed {
		s.hashSizes[k.hash] = obj.size
		if obj.data != nil {
			s.hashData[k.hash] = obj.data
		} else {
			delete(s.hashData, k.hash) // overwrite may flip a kept object to size-only
		}
		return
	}
	s.objects[k.str] = obj
}

func (s *Store) removeObject(k objectKey) {
	if k.hashed {
		delete(s.hashSizes, k.hash)
		delete(s.hashData, k.hash)
		return
	}
	delete(s.objects, k.str)
}

type multipartUpload struct {
	id      string
	key     objectKey
	size    uint64
	parts   int
	chunks  [][]byte // the parts as handed over; empty unless KeepData
	started time.Time
}

// New creates an empty store.
func New(cfg Config) *Store {
	return &Store{
		cfg: cfg,
		m: blobMetrics{
			putBytes:    cfg.Metrics.Counter("blob.put.bytes"),
			getBytes:    cfg.Metrics.Counter("blob.get.bytes"),
			deletes:     cfg.Metrics.Counter("blob.deletes"),
			objectBytes: cfg.Metrics.Histogram("blob.object.bytes"),
			putSeconds:  cfg.Metrics.Histogram("blob.put.seconds"),
			getSeconds:  cfg.Metrics.Histogram("blob.get.seconds"),
			objectsHeld: cfg.Metrics.Gauge("blob.objects.held"),
		},
		hashSizes: make(map[[20]byte]uint64),
		hashData:  make(map[[20]byte][]byte),
		objects:   make(map[string]object),
		uploads:   make(map[string]*multipartUpload),
	}
}

// PutObject stores a copy of data under key in one shot (used for contents at
// or below one part).
func (s *Store) PutObject(key string, data []byte) error { return s.put(keyOf(key), data) }

// PutHash is PutObject for the content with hash h.
func (s *Store) PutHash(h [20]byte, data []byte) error { return s.put(hashKey(h), data) }

func (s *Store) put(k objectKey, data []byte) error {
	//u1:allow wallclock measures real blob-path execution time; observability only, never simulation state
	start := time.Now()
	var kept []byte
	if s.cfg.KeepData {
		kept = append(kept, data...)
	}
	s.mu.Lock()
	s.putLocked(k, uint64(len(data)), kept)
	s.mu.Unlock()
	s.recordPut(uint64(len(data)), start)
	return nil
}

// PutObjectSized stores a size-only object (metered mode helper for the
// simulator, which never materializes contents).
func (s *Store) PutObjectSized(key string, size uint64) error { return s.putSized(keyOf(key), size) }

// PutHashSized is PutObjectSized for the content with hash h.
func (s *Store) PutHashSized(h [20]byte, size uint64) error { return s.putSized(hashKey(h), size) }

func (s *Store) putSized(k objectKey, size uint64) error {
	//u1:allow wallclock measures real blob-path execution time; observability only, never simulation state
	start := time.Now()
	s.mu.Lock()
	s.putLocked(k, size, nil)
	s.mu.Unlock()
	s.recordPut(size, start)
	return nil
}

func (s *Store) recordPut(size uint64, start time.Time) {
	s.m.putBytes.Add(size)
	s.m.objectBytes.Observe(float64(size))
	//u1:allow wallclock measures real blob-path execution time; observability only, never simulation state
	s.m.putSeconds.Observe(time.Since(start).Seconds())
}

// putLocked stores an object whose data (nil for size-only) the store already
// owns.
func (s *Store) putLocked(k objectKey, size uint64, data []byte) {
	s.commitLocked(k, object{size: size, data: data})
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

// GetObject returns the object's bytes: the stored slice itself, shared with
// every other reader and read-only. In metered mode it synthesizes
// deterministic pseudo-content of the recorded size.
func (s *Store) GetObject(key string) ([]byte, error) { return s.get(keyOf(key)) }

// GetHash is GetObject for the content with hash h.
func (s *Store) GetHash(h [20]byte) ([]byte, error) { return s.get(hashKey(h)) }

func (s *Store) get(k objectKey) ([]byte, error) {
	//u1:allow wallclock measures real blob-path execution time; observability only, never simulation state
	start := time.Now()
	s.mu.Lock()
	obj, ok := s.loadObject(k)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNoSuchKey, k)
	}
	s.counters.Gets++
	s.counters.BytesOut += obj.size
	out := obj.data
	if out == nil {
		out = synthesize(k.String(), obj.size)
	}
	s.mu.Unlock()
	s.m.getBytes.Add(obj.size)
	//u1:allow wallclock measures real blob-path execution time; observability only, never simulation state
	s.m.getSeconds.Observe(time.Since(start).Seconds())
	return out, nil
}

// HeadObject returns the object's size without transferring it.
func (s *Store) HeadObject(key string) (uint64, error) { return s.head(keyOf(key)) }

// HeadHash is HeadObject for the content with hash h.
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

// DeleteObject removes an object; deleting a missing key is a no-op, as in
// S3.
func (s *Store) DeleteObject(key string) { s.remove(keyOf(key)) }

// DeleteHash is DeleteObject for the content with hash h.
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

// CreateMultipartUpload starts a multipart upload towards key and returns the
// multipart id that the metadata store records on the uploadjob
// (dal.set_uploadjob_multipart_id).
func (s *Store) CreateMultipartUpload(key string, now time.Time) string {
	return s.createMultipart(keyOf(key), now)
}

// CreateMultipartHash is CreateMultipartUpload towards the content with
// hash h.
func (s *Store) CreateMultipartHash(h [20]byte, now time.Time) string {
	return s.createMultipart(hashKey(h), now)
}

func (s *Store) createMultipart(k objectKey, now time.Time) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("mp-%d", s.nextID)
	s.uploads[id] = &multipartUpload{id: id, key: k, started: now}
	s.counters.MultipartCreated++
	return id
}

// UploadPart appends one part. Parts must arrive in order (1-based,
// contiguous), which is how the U1 API server streams them. The store keeps
// data itself, not a copy, until the upload completes or aborts.
func (s *Store) UploadPart(id string, partNum int, data []byte) error {
	return s.uploadPart(id, partNum, uint64(len(data)), data)
}

// UploadPartSized appends a size-only part (metered mode).
func (s *Store) UploadPartSized(id string, partNum int, size uint64) error {
	return s.uploadPart(id, partNum, size, nil)
}

func (s *Store) uploadPart(id string, partNum int, size uint64, data []byte) error {
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
	if s.cfg.KeepData && len(data) > 0 {
		up.chunks = append(up.chunks, data)
	}
	s.counters.PartsUploaded++
	s.counters.BytesIn += size
	s.m.putBytes.Add(size)
	return nil
}

// CompleteMultipartUpload commits the accumulated parts as the object: they
// are joined once, outside the store lock, into a buffer of exactly their
// total size.
func (s *Store) CompleteMultipartUpload(id string) error {
	s.mu.Lock()
	up, ok := s.uploads[id]
	delete(s.uploads, id)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchUpload, id)
	}
	obj := object{size: up.size}
	if len(up.chunks) > 0 {
		obj.data = bytes.Join(up.chunks, nil)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// BytesIn was already counted per part; commit without recounting.
	s.commitLocked(up.key, obj)
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

// AbandonedUploads returns the ids of multipart uploads started before
// cutoff, for garbage collection sweeps.
func (s *Store) AbandonedUploads(cutoff time.Time) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var ids []string
	for id, up := range s.uploads {
		if up.started.Before(cutoff) {
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
