package metadata

import (
	"time"

	"u1/internal/protocol"
)

// UploadJob is the persistent server-side state of a multipart upload between
// a client and the data store (appendix A, Fig. 17). It is created by
// dal.make_uploadjob, annotated with the S3 multipart id, fed by
// dal.add_part_to_uploadjob, and garbage-collected by dal.delete_uploadjob —
// either on commit, on cancellation, or by the periodic sweep when older than
// one week.
type UploadJob struct {
	ID     protocol.UploadID
	User   protocol.UserID
	Volume protocol.VolumeID
	Node   protocol.NodeID
	Hash   protocol.Hash
	// DeclaredSize is the plain file size announced by the client.
	DeclaredSize uint64
	// MultipartID is the identifier assigned by the data store
	// (dal.set_uploadjob_multipart_id).
	MultipartID string
	// Parts and BytesDone track streaming progress.
	Parts     uint32
	BytesDone uint64
	CreatedAt time.Time
	TouchedAt time.Time
}

// UploadJobMaxAge is the garbage-collection horizon: jobs untouched for a
// week are presumed canceled (appendix A).
const UploadJobMaxAge = 7 * 24 * time.Hour

// MakeUploadJob creates the server-side state for a multipart upload
// (dal.make_uploadjob). now is passed explicitly so the discrete-event
// simulator can run on virtual time.
func (s *Store) MakeUploadJob(user protocol.UserID, vol protocol.VolumeID, node protocol.NodeID, h protocol.Hash, declaredSize uint64, now time.Time) (*UploadJob, error) {
	sh := s.shardOf(user)
	defer sh.wunlock(sh.wlock())
	if _, ok := sh.users[user]; !ok {
		return nil, protocol.ErrNotFound
	}
	job := &UploadJob{
		ID:           s.allocUpload(),
		User:         user,
		Volume:       vol,
		Node:         node,
		Hash:         h,
		DeclaredSize: declaredSize,
		CreatedAt:    now,
		TouchedAt:    now,
	}
	sh.uploadjobs[job.ID] = job
	return cloneJob(job), nil
}

// GetUploadJob returns the job state (dal.get_uploadjob).
func (s *Store) GetUploadJob(user protocol.UserID, id protocol.UploadID) (*UploadJob, error) {
	sh := s.shardOf(user)
	defer sh.runlock(sh.rlock())
	job, ok := sh.uploadjobs[id]
	if !ok || job.User != user {
		return nil, protocol.ErrNotFound
	}
	return cloneJob(job), nil
}

// SetUploadJobMultipartID records the data-store multipart identifier
// (dal.set_uploadjob_multipart_id).
func (s *Store) SetUploadJobMultipartID(user protocol.UserID, id protocol.UploadID, multipartID string) error {
	sh := s.shardOf(user)
	defer sh.wunlock(sh.wlock())
	job, ok := sh.uploadjobs[id]
	if !ok || job.User != user {
		return protocol.ErrNotFound
	}
	job.MultipartID = multipartID
	return nil
}

// AddPartToUploadJob accumulates one uploaded part
// (dal.add_part_to_uploadjob) and returns the job's new state — by value:
// it is called once per streamed part, and its callers only look.
func (s *Store) AddPartToUploadJob(user protocol.UserID, id protocol.UploadID, partBytes uint64, now time.Time) (UploadJob, error) {
	sh := s.shardOf(user)
	defer sh.wunlock(sh.wlock())
	job, ok := sh.uploadjobs[id]
	if !ok || job.User != user {
		return UploadJob{}, protocol.ErrNotFound
	}
	job.Parts++
	job.BytesDone += partBytes
	job.TouchedAt = now
	return *job, nil
}

// TouchUploadJob refreshes the job's liveness stamp and reports whether the
// job had already exceeded the garbage-collection horizon
// (dal.touch_uploadjob). An expired job is removed and reported.
func (s *Store) TouchUploadJob(user protocol.UserID, id protocol.UploadID, now time.Time) (expired bool, err error) {
	sh := s.shardOf(user)
	defer sh.wunlock(sh.wlock())
	job, ok := sh.uploadjobs[id]
	if !ok || job.User != user {
		return false, protocol.ErrNotFound
	}
	if now.Sub(job.TouchedAt) > UploadJobMaxAge {
		delete(sh.uploadjobs, id)
		return true, nil
	}
	job.TouchedAt = now
	return false, nil
}

// DeleteUploadJob garbage-collects the job state on commit or cancellation
// (dal.delete_uploadjob).
func (s *Store) DeleteUploadJob(user protocol.UserID, id protocol.UploadID) error {
	sh := s.shardOf(user)
	defer sh.wunlock(sh.wlock())
	job, ok := sh.uploadjobs[id]
	if !ok || job.User != user {
		return protocol.ErrNotFound
	}
	delete(sh.uploadjobs, id)
	return nil
}

// SweepUploadJobs removes every job untouched for longer than UploadJobMaxAge
// across all shards and returns how many were collected. The API servers run
// this periodically (appendix A's garbage-collection process).
func (s *Store) SweepUploadJobs(now time.Time) int {
	var swept int
	for _, sh := range s.shards {
		// Maintenance sweep, not a DAL op: lock directly so the per-shard
		// write counters keep measuring client load only.
		//u1:allow lockdiscipline maintenance sweep; write counters keep measuring client load only
		sh.mu.Lock()
		for id, job := range sh.uploadjobs {
			if now.Sub(job.TouchedAt) > UploadJobMaxAge {
				delete(sh.uploadjobs, id)
				swept++
			}
		}
		sh.mu.Unlock()
	}
	return swept
}

func cloneJob(j *UploadJob) *UploadJob {
	c := *j
	return &c
}
