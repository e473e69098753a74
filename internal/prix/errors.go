package prix

import (
	"context"
	"errors"
	"io/fs"

	"repro/internal/docstore"
	"repro/internal/pager"
	"repro/internal/xmltree"
)

// ErrOldLayout reports a directory written in an on-disk layout this build
// has no reader for: a layout stamp other than postingsLayout, or the
// document store's meta as one run of pages (docstore.ErrOldLayout). Open's
// error wraps it, once, with the package, the directory and the stamp it
// found. Rebuild the index with prixload.
var ErrOldLayout = errors.New("index uses an older on-disk layout; rebuild with prixload")

// ErrorClass partitions query and storage errors by what the caller should
// do about them.
type ErrorClass int

const (
	// ClassPermanent errors reproduce on retry: query shape problems,
	// decode failures, anything not recognised below. Do not retry.
	ClassPermanent ErrorClass = iota
	// ClassCorruption is permanent damage to persisted data (checksum
	// mismatch, undecodable record). Do not retry; quarantine or repair.
	ClassCorruption
	// ClassTransient faults (injected faults, OS-level I/O errors) may
	// succeed on a bounded retry.
	ClassTransient
	// ClassCanceled means the query's context expired; the result is
	// meaningless rather than wrong.
	ClassCanceled
)

// Classify maps an error from Match/Insert/Open to its class. Unknown
// errors default to ClassPermanent: retrying something we cannot name is
// how retry storms start.
//
// Every test uses errors.Is, so sentinels are found through fmt.Errorf
// ("%w") chains and errors.Join trees alike. Corruption outranks
// cancellation: a query that observed a bad page AND ran out of deadline
// (the two arrive joined from retry wrappers) must surface the damage so
// the scrubber quarantines and repairs it, instead of the report dying with
// the request.
func Classify(err error) ErrorClass {
	switch {
	case err == nil:
		return ClassPermanent
	case errors.Is(err, pager.ErrCorrupt), errors.Is(err, docstore.ErrBadRecord),
		errors.Is(err, docstore.ErrQuarantined):
		return ClassCorruption
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	case errors.Is(err, xmltree.ErrLimit):
		// A document over a parse limit blows the same limit on every
		// retry; reject it for good.
		return ClassPermanent
	case errors.Is(err, pager.ErrInjected), isOSIOError(err):
		return ClassTransient
	default:
		return ClassPermanent
	}
}

// IsCorruption reports permanent data damage: a checksum or format failure
// somewhere under the error chain.
func IsCorruption(err error) bool { return Classify(err) == ClassCorruption }

// IsTransient reports faults where one bounded retry is reasonable.
func IsTransient(err error) bool { return Classify(err) == ClassTransient }

// isOSIOError recognises operating-system read/write failures (wrapped
// *fs.PathError, as os.File methods return).
func isOSIOError(err error) bool {
	var pe *fs.PathError
	return errors.As(err, &pe)
}
