package blob

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

var now = time.Unix(1390000000, 0)

// hashOf names a test object by the hash of a label.
func hashOf(label string) [20]byte { return sha1.Sum([]byte(label)) }

func TestPutGetDelete(t *testing.T) {
	s := New(Config{KeepData: true})
	data := []byte("hello s3")
	k1 := hashOf("k1")
	if err := s.PutHash(k1, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.PartsHash(k1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], data) {
		t.Errorf("got %q", got)
	}
	size, err := s.HeadHash(k1)
	if err != nil || size != uint64(len(data)) {
		t.Errorf("head = %d, %v", size, err)
	}
	s.DeleteHash(k1)
	if _, err := s.PartsHash(k1); !errors.Is(err, ErrNoSuchKey) {
		t.Errorf("get after delete = %v", err)
	}
	// Deleting a missing key is a no-op (S3 semantics).
	s.DeleteHash(k1)
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.Deletes != 2 || st.Objects != 0 || st.BytesHeld != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMeteredMode(t *testing.T) {
	s := New(Config{})
	if err := s.PutObjectSized("k", 1<<20); err != nil {
		t.Fatal(err)
	}
	data, err := s.GetObject("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1<<20 {
		t.Errorf("synthesized %d bytes", len(data))
	}
	// Deterministic synthesis.
	again, _ := s.GetObject("k")
	if !bytes.Equal(data, again) {
		t.Error("synthesized content should be deterministic")
	}
	st := s.Stats()
	if st.BytesHeld != 1<<20 || st.BytesOut != 2<<20 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdempotentOverwrite(t *testing.T) {
	s := New(Config{KeepData: true})
	s.PutObject("k", []byte("abc"))
	s.PutObject("k", []byte("abc"))
	st := s.Stats()
	if st.Objects != 1 || st.BytesHeld != 3 {
		t.Errorf("stats after overwrite = %+v", st)
	}
}

func TestMultipartHappyPath(t *testing.T) {
	s := New(Config{KeepData: true})
	id := s.CreateMultipartHash(hashOf("big"), now)
	p1 := bytes.Repeat([]byte{1}, 10)
	p2 := bytes.Repeat([]byte{2}, 5)
	if err := s.UploadPart(id, 1, p1, now); err != nil {
		t.Fatal(err)
	}
	if err := s.UploadPart(id, 2, p2, now); err != nil {
		t.Fatal(err)
	}
	if err := s.CompleteMultipartUpload(id); err != nil {
		t.Fatal(err)
	}
	big := hashOf("big")
	got, err := s.GetObject(hex.EncodeToString(big[:]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(append([]byte(nil), p1...), p2...)) {
		t.Error("multipart content mismatch")
	}
	st := s.Stats()
	if st.MultipartCreated != 1 || st.MultipartCompleted != 1 || st.PartsUploaded != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesIn != 15 || st.BytesHeld != 15 {
		t.Errorf("byte accounting = %+v", st)
	}
	// Completing twice fails.
	if err := s.CompleteMultipartUpload(id); !errors.Is(err, ErrNoSuchUpload) {
		t.Errorf("double complete = %v", err)
	}
}

func TestMultipartPartOrdering(t *testing.T) {
	s := New(Config{})
	id := s.CreateMultipartHash(hashOf("k"), now)
	if err := s.UploadPartSized(id, 2, 10, now); !errors.Is(err, ErrPartGap) {
		t.Errorf("gap err = %v", err)
	}
	if err := s.UploadPartSized(id, 1, 10, now); err != nil {
		t.Fatal(err)
	}
	if err := s.UploadPartSized(id, 1, 10, now); !errors.Is(err, ErrPartGap) {
		t.Errorf("repeat err = %v", err)
	}
	if err := s.UploadPartSized("ghost", 1, 10, now); !errors.Is(err, ErrNoSuchUpload) {
		t.Errorf("ghost err = %v", err)
	}
}

func TestMultipartAbortAndGC(t *testing.T) {
	s := New(Config{})
	id1 := s.CreateMultipartHash(hashOf("a"), now)
	id2 := s.CreateMultipartHash(hashOf("b"), now.Add(48*time.Hour))
	if err := s.AbortMultipartUpload(id1); err != nil {
		t.Fatal(err)
	}
	if err := s.AbortMultipartUpload(id1); !errors.Is(err, ErrNoSuchUpload) {
		t.Errorf("double abort = %v", err)
	}
	// Only id2 remains; GC with a cutoff after its start finds it.
	old := s.AbandonedUploads(now.Add(72 * time.Hour))
	if len(old) != 1 || old[0] != id2 {
		t.Errorf("abandoned = %v", old)
	}
	// Nothing before the cutoff.
	if got := s.AbandonedUploads(now); len(got) != 0 {
		t.Errorf("abandoned before start = %v", got)
	}
	if s.Stats().MultipartAborted != 1 {
		t.Errorf("stats = %+v", s.Stats())
	}
}

func TestCompleteOverwritesExisting(t *testing.T) {
	s := New(Config{})
	s.PutHashSized(hashOf("k"), 100)
	id := s.CreateMultipartHash(hashOf("k"), now)
	s.UploadPartSized(id, 1, 200, now)
	if err := s.CompleteMultipartUpload(id); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Objects != 1 || st.BytesHeld != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSynthesizeEdgeCases(t *testing.T) {
	if synthesize("k", 0) != nil {
		t.Error("zero size should be nil")
	}
	if got := synthesize("", 5); len(got) != 5 {
		t.Errorf("empty key synthesis = %v", got)
	}
	if got := synthesize("abc", 7); len(got) != 7 {
		t.Errorf("len = %d", len(got))
	}
}

func TestTransferModel(t *testing.T) {
	m := TransferModel{RTT: 100 * time.Millisecond, Bandwidth: 1e6}
	if got := m.Time(0); got != 100*time.Millisecond {
		t.Errorf("zero bytes = %v", got)
	}
	if got := m.Time(1e6); got != 1100*time.Millisecond {
		t.Errorf("1MB = %v", got)
	}
	deg := TransferModel{RTT: time.Second}
	if deg.Time(1e9) != time.Second {
		t.Error("zero bandwidth should return RTT")
	}
	if DefaultTransferModel().Bandwidth <= 0 {
		t.Error("default model should have bandwidth")
	}
}

// The ownership rule of the package comment: PutObject copies its argument
// (a caller may refill one buffer between puts), PutHash adopts its argument
// as the stored part, GetObject hands out the one stored slice to every
// reader, and an overwrite leaves the bytes an earlier reader holds untouched.
func TestPutCopiesGetShares(t *testing.T) {
	s := New(Config{KeepData: true})
	buf := bytes.Repeat([]byte{1}, 4096)
	if err := s.PutObject("one", buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 2
	}
	if err := s.PutObject("two", buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 3
	}
	one, _ := s.GetObject("one")
	two, _ := s.GetObject("two")
	if !bytes.Equal(one, bytes.Repeat([]byte{1}, 4096)) || !bytes.Equal(two, bytes.Repeat([]byte{2}, 4096)) {
		t.Fatal("a stored object changed with the buffer it was put from")
	}
	again, _ := s.GetObject("one")
	if &again[0] != &one[0] {
		t.Error("two reads of one key should share the stored bytes")
	}
	if err := s.PutObject("one", buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one, bytes.Repeat([]byte{1}, 4096)) {
		t.Error("an overwrite modified bytes a reader already held")
	}
	if fresh, _ := s.GetObject("one"); !bytes.Equal(fresh, buf) || &fresh[0] == &buf[0] {
		t.Error("overwrite not visible to a new reader, or stored without a copy")
	}

	adopted := bytes.Repeat([]byte{4}, 4096)
	h := hashOf("adopted")
	if err := s.PutHash(h, adopted); err != nil {
		t.Fatal(err)
	}
	if parts, err := s.PartsHash(h); err != nil || len(parts) != 1 || &parts[0][0] != &adopted[0] {
		t.Errorf("PutHash should store the slice it was given as the object's one part (err %v)", err)
	}
}

// A multipart object is the parts it was uploaded as: Complete commits the
// slices UploadPart was given without copying them, and GetObject still joins
// them into the object's exact bytes.
func TestMultipartKeepsItsParts(t *testing.T) {
	s := New(Config{KeepData: true})
	big := hashOf("big")
	var parts [][]byte
	var want []byte
	for i, n := range []int{PartSize, PartSize, 1234} {
		part := bytes.Repeat([]byte{byte(i + 1)}, n)
		parts = append(parts, part)
		want = append(want, part...)
	}
	// Every upload is open before the measurement, so Complete runs alone
	// inside it; AllocsPerRun calls its function once more to warm up.
	const runs = 10
	ids := make([]string, runs+1)
	for i := range ids {
		ids[i] = s.CreateMultipartHash(big, now)
		for n, part := range parts {
			if err := s.UploadPart(ids[i], n+1, part, now); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if err := s.CompleteMultipartUpload(ids[0]); err != nil {
			t.Fatal(err)
		}
		ids = ids[1:]
	})
	if allocs != 0 {
		t.Errorf("Complete of a %d-byte object allocates %.0f times, want 0", len(want), allocs)
	}

	got, err := s.PartsHash(big)
	if err != nil || len(got) != len(parts) {
		t.Fatalf("object has %d parts (err %v), want %d", len(got), err, len(parts))
	}
	for i := range parts {
		if len(got[i]) != len(parts[i]) || &got[i][0] != &parts[i][0] {
			t.Errorf("part %d of the object is not the slice UploadPart was given", i)
		}
	}
	joined, err := s.GetObject(hex.EncodeToString(big[:]))
	if err != nil || !bytes.Equal(joined, want) {
		t.Fatalf("GetObject of the multipart object: %d bytes (err %v), want its %d", len(joined), err, len(want))
	}
}
