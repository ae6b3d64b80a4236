package protocol

import (
	"errors"
	"fmt"
)

// Status is the result code carried on every response.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota
	StatusAuthFailed
	StatusNotFound
	StatusExists
	StatusPermission
	StatusBadRequest
	StatusUnavailable
	StatusConflict
	StatusQuota
	StatusCancelled
	StatusOverloaded

	numStatuses = int(StatusOverloaded) + 1
)

// Statuses returns every defined status code in declaration order, for
// classification tables that must cover the whole vocabulary (a new status
// shows up here and forces every such table to take a position on it).
//
//u1:allow unused the status vocabulary the classification tables are audited against
func Statuses() []Status {
	out := make([]Status, numStatuses)
	for i := range out {
		out[i] = Status(i)
	}
	return out
}

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusAuthFailed:
		return "auth failed"
	case StatusNotFound:
		return "not found"
	case StatusExists:
		return "already exists"
	case StatusPermission:
		return "permission denied"
	case StatusBadRequest:
		return "bad request"
	case StatusUnavailable:
		return "unavailable"
	case StatusConflict:
		return "conflict"
	case StatusQuota:
		return "quota exceeded"
	case StatusCancelled:
		return "cancelled"
	case StatusOverloaded:
		return "overloaded"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Sentinel errors mirroring the status codes; server components return these
// and the API layer maps them onto the wire with StatusOf.
var (
	ErrAuthFailed  = errors.New("protocol: authentication failed")
	ErrNotFound    = errors.New("protocol: not found")
	ErrExists      = errors.New("protocol: already exists")
	ErrPermission  = errors.New("protocol: permission denied")
	ErrBadRequest  = errors.New("protocol: bad request")
	ErrUnavailable = errors.New("protocol: service unavailable")
	ErrConflict    = errors.New("protocol: conflict")
	ErrQuota       = errors.New("protocol: quota exceeded")
	// ErrCancelled marks a request dropped before its handler ran because
	// the client disconnected while it waited.
	ErrCancelled = errors.New("protocol: request cancelled")
	// ErrOverloaded marks a request shed by admission control before its
	// handler ran (the §5.4 provider-side load-shedding response). Clients
	// should back off and retry; the session itself stays valid.
	ErrOverloaded = errors.New("protocol: server overloaded")
)

// StatusOf maps an error to its wire status. Unknown errors map to
// StatusUnavailable, never leaking internals to clients.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrAuthFailed):
		return StatusAuthFailed
	case errors.Is(err, ErrNotFound):
		return StatusNotFound
	case errors.Is(err, ErrExists):
		return StatusExists
	case errors.Is(err, ErrPermission):
		return StatusPermission
	case errors.Is(err, ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, ErrConflict):
		return StatusConflict
	case errors.Is(err, ErrQuota):
		return StatusQuota
	case errors.Is(err, ErrCancelled):
		return StatusCancelled
	case errors.Is(err, ErrOverloaded):
		return StatusOverloaded
	default:
		return StatusUnavailable
	}
}

// Err converts a non-OK status back into its sentinel error; StatusOK yields
// nil. Round-tripping StatusOf and Err preserves error identity for the
// sentinel set.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusAuthFailed:
		return ErrAuthFailed
	case StatusNotFound:
		return ErrNotFound
	case StatusExists:
		return ErrExists
	case StatusPermission:
		return ErrPermission
	case StatusBadRequest:
		return ErrBadRequest
	case StatusConflict:
		return ErrConflict
	case StatusQuota:
		return ErrQuota
	case StatusCancelled:
		return ErrCancelled
	case StatusOverloaded:
		return ErrOverloaded
	default:
		return ErrUnavailable
	}
}
