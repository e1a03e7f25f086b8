// Package protocol implements five coherence protocols — the four of the
// paper plus a timestamp protocol — on top of the simulated mesh,
// caches, and directories:
//
//   - SC: a sequentially consistent directory protocol (every access
//     stalls until globally performed) — the unit line of every figure.
//   - ERC: eager release consistency in the style of DASH — write-back
//     caches, exclusive ownership, invalidations dispatched at write
//     time, a small write buffer with read bypass, and releases that
//     stall until all outstanding coherence transactions complete.
//   - LRC: the paper's lazy protocol — multiple concurrent writers,
//     write notices sent at write time and processed in the background,
//     invalidations deferred to acquire operations, write-through caches
//     with a coalescing buffer, and home-collected acknowledgements.
//   - LRCExt: the lazier variant — write notices buffered locally and
//     posted only at release (or on eviction of a written block).
//   - Tardis: timestamp coherence — logical read leases instead of
//     invalidation fan-out, with sequentially consistent stalling
//     stores (see tardis.go).
//
// The package also provides the synchronization managers (queue locks,
// barriers, one-shot flags) whose acquire and release operations carry
// the consistency-model hooks.
package protocol

import (
	"fmt"

	"lazyrc/internal/faults"
)

// MsgKind enumerates coherence and synchronization message types.
type MsgKind int

const (
	// MsgReadReq asks a home node for a block's data (control).
	MsgReadReq MsgKind = iota
	// MsgReadReply returns block data to a requester (data). Arg carries
	// the directory state after the transition (directory.State) so lazy
	// requesters learn whether the block is weak.
	MsgReadReply
	// MsgWriteReq announces a write (and, if Arg&wantData, asks for the
	// block's data): the ownership request of the eager protocols, the
	// write notice trigger of the lazy ones.
	MsgWriteReq
	// MsgWriteData returns block data for a write miss (data). Arg
	// carries the directory state.
	MsgWriteData
	// MsgWriteDone tells a writer that its write request is globally
	// performed (all invalidations or notice acks collected).
	MsgWriteDone
	// MsgInval orders a sharer to invalidate its copy now (eager
	// protocols; control). Aux carries 1 if the home needs the data
	// back (owner invalidation).
	MsgInval
	// MsgInvalAck acknowledges an invalidation to the collecting home.
	MsgInvalAck
	// MsgNotice is a lazy write notice: the block has entered the weak
	// state; invalidate it at your next acquire (control).
	MsgNotice
	// MsgNoticeAck acknowledges a write notice to the collecting home.
	MsgNoticeAck
	// MsgFwdRead asks the current owner to supply data to a reader
	// (eager 3-hop; control). Arg is the original requester.
	MsgFwdRead
	// MsgFwdWrite asks the current owner to yield the block to a writer
	// (eager 3-hop; control). Arg is the original requester.
	MsgFwdWrite
	// MsgOwnerData is data supplied by an owner to a requester (data).
	// Arg carries the directory state, Aux 1 if ownership transfers.
	MsgOwnerData
	// MsgSharingWB is the owner's concurrent write-back to the home when
	// a third party reads a dirty block (data).
	MsgSharingWB
	// MsgXferDone tells the home that a forwarded request has been
	// served by the (old) owner, ending the transfer window during which
	// further requests for the block are deferred.
	MsgXferDone
	// MsgFwdNack tells the home the owner could not serve a forwarded
	// request (its copy is gone); the home re-resolves the original
	// request from the current directory state. Arg is the original
	// requester; Aux packs the original request (bit 0: write, bit 1:
	// wantData).
	MsgFwdNack
	// MsgWriteBack carries a replaced dirty block's data home (data).
	MsgWriteBack
	// MsgWriteThrough carries coalesced dirty words home (data payload =
	// dirty words; Arg is the word mask).
	MsgWriteThrough
	// MsgWTAck acknowledges a write-through or write-back merge into
	// memory.
	MsgWTAck
	// MsgEvict is a replacement hint: drop me from the sharer set
	// (control).
	MsgEvict
	// MsgInvNotify tells the home an acquire-time invalidation dropped a
	// copy (lazy protocols; control).
	MsgInvNotify
	// MsgNoticePost is the lazier protocol's deferred write notice,
	// posted at release or eviction (control).
	MsgNoticePost

	// MsgLockReq through MsgFlagGo are synchronization traffic handled
	// by the sync managers. Aux carries the object id. Addr carries the
	// logical timestamp of the timestamp protocol (0 otherwise).
	MsgLockReq
	MsgLockGrant
	MsgLockFree
	MsgBarArrive
	MsgBarGo
	MsgFlagSet
	MsgFlagWait
	MsgFlagGo

	// The MsgT* kinds belong to the timestamp protocol (tardis), which
	// replaces invalidation fan-out with logical leases.
	// They are appended after the sync block so every pre-existing kind
	// keeps its number (fault plans and traffic tables stay stable).

	// MsgTReadReq asks the home for a block's data and a read lease
	// (control). Arg is the requester's program timestamp.
	MsgTReadReq
	// MsgTReadReply returns block data plus its lease (data). Arg is the
	// write timestamp, Aux the read-lease end.
	MsgTReadReply
	// MsgTRenewReq asks the home to extend an expired lease (control).
	// Arg is the requester's program timestamp, Aux the write timestamp
	// of its cached copy (so the home can prove the copy current).
	MsgTRenewReq
	// MsgTRenewAck extends a lease without data — the renewal fast path
	// when the copy is still current (control). Arg is the write
	// timestamp, Aux the new read-lease end.
	MsgTRenewAck
	// MsgTWriteReq asks the home for exclusive ownership (control). Arg
	// is the requester's program timestamp. Aux bit 0 asks for the
	// block's contents unconditionally (no cached copy); Aux bit 1 says
	// a read copy with write timestamp Aux>>2 is cached, so the home
	// includes data only if that copy is stale.
	MsgTWriteReq
	// MsgTWriteReply grants exclusive ownership (data iff Aux&1). Arg is
	// the new write timestamp.
	MsgTWriteReply
	// MsgTRecall asks the current exclusive owner to yield the block
	// back to the home (control).
	MsgTRecall
	// MsgTYield returns a recalled block's data to the home, giving up
	// ownership (data). Aux is the owner's write timestamp.
	MsgTYield
	// MsgTWB carries an evicted owned block's data home (data). Aux is
	// the owner's write timestamp.
	MsgTWB
	// MsgTNack tells the home a recall found no copy (the owner's
	// eviction write-back is already on the wire ahead of it).
	MsgTNack

	numMsgKinds
)

var msgNames = [...]string{
	"ReadReq", "ReadReply", "WriteReq", "WriteData", "WriteDone",
	"Inval", "InvalAck", "Notice", "NoticeAck",
	"FwdRead", "FwdWrite", "OwnerData", "SharingWB", "XferDone", "FwdNack",
	"WriteBack", "WriteThrough", "WTAck", "Evict", "InvNotify",
	"NoticePost",
	"LockReq", "LockGrant", "LockFree", "BarArrive", "BarGo",
	"FlagSet", "FlagWait", "FlagGo",
	"TReadReq", "TReadReply", "TRenewReq", "TRenewAck",
	"TWriteReq", "TWriteReply", "TRecall", "TYield", "TWB", "TNack",
}

// String returns the message kind mnemonic.
func (k MsgKind) String() string {
	if int(k) < len(msgNames) {
		return msgNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// wantData flags a MsgWriteReq that needs the block's contents (the line
// was invalid at the writer).
const wantData = 1

// NumMsgKinds returns the number of message kinds (for traffic reports).
func NumMsgKinds() int { return int(numMsgKinds) }

// The faults package names message kinds, as raw integers, in the
// transport's error messages but cannot import this package (protocol
// imports mesh imports faults); register the naming function with it
// instead.
func init() {
	faults.RegisterKindName(func(kind int) string { return MsgKind(kind).String() })
}
