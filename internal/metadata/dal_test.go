package metadata

import (
	"time"

	"u1/internal/protocol"
)

// DAL reads and the upload-job touch the servers never issue; the tests read
// the store's state back through them.

// UserData summarizes a user's account state (dal.get_user_data).
type UserData struct {
	ID         protocol.UserID
	RootVolume protocol.VolumeID
	Volumes    int
	SharesIn   int
	SharesOut  int
}

// GetUserData returns the account summary (dal.get_user_data).
func (s *Store) GetUserData(user protocol.UserID) (UserData, error) {
	sh := s.shardOf(user)
	defer sh.runlock(sh.rlock())
	u, ok := sh.users[user]
	if !ok {
		return UserData{}, protocol.ErrNotFound
	}
	return UserData{
		ID:         user,
		RootVolume: u.root,
		Volumes:    len(u.volumes),
		SharesIn:   len(u.sharesIn),
		SharesOut:  len(u.sharesOut),
	}, nil
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
