package remote

import (
	"errors"
	"fmt"
	"net/rpc"
	"strings"
	"time"

	"distcfd/internal/core"
)

// net/rpc flattens every handler error to a string before it crosses
// the wire, so typed errors (core.CodedError, ErrStaleIncremental)
// would arrive as bare text and force the client into string matching.
// The wire instead carries a machine-readable envelope in the string
// itself: "[distcfd:<code>] <message>". The server side encodes it
// (encodeError), the client side parses it back into a CodedError
// (decodeError); an error without an envelope is a plain application
// error and is classified by nothing.
//
// Optional comma-separated params follow the code:
// "[distcfd:overloaded,retry-after=50ms] <message>" carries the site's
// backpressure hint. A param-free envelope reads as a zero hint.

// codePrefix opens the wire error envelope.
const codePrefix = "[distcfd:"

// retryAfterParam is the envelope param carrying the backpressure hint
// of an overloaded site.
const retryAfterParam = "retry-after="

// encodeError wraps a handler error in the wire code envelope when it
// carries a classification; unclassified errors travel as-is.
func encodeError(err error) error {
	if err == nil {
		return nil
	}
	code := core.ErrCodeOf(err)
	if code == "" && core.IsStaleIncremental(err) {
		code = core.CodeStale
	}
	if code == "" {
		return err
	}
	var params string
	var ce *core.CodedError
	if errors.As(err, &ce) && ce.RetryAfter > 0 {
		params = "," + retryAfterParam + ce.RetryAfter.String()
	}
	return fmt.Errorf("%s%s%s] %s", codePrefix, code, params, err.Error())
}

// decodeError rebuilds the typed error from a server-reported RPC
// error. Non-enveloped errors (plain application errors) pass through
// unchanged.
func decodeError(err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(rpc.ServerError); !ok {
		return err
	}
	rest, ok := strings.CutPrefix(err.Error(), codePrefix)
	if !ok {
		return err
	}
	head, msg, ok := strings.Cut(rest, "] ")
	if !ok {
		return err
	}
	code, params, _ := strings.Cut(head, ",")
	ce := &core.CodedError{Code: core.ErrCode(code), Msg: msg}
	for _, p := range strings.Split(params, ",") {
		if v, ok := strings.CutPrefix(p, retryAfterParam); ok {
			if d, perr := time.ParseDuration(v); perr == nil {
				ce.RetryAfter = d
			}
		}
	}
	// The admission codes reject strictly before the call runs, so the
	// decoded error keeps even non-idempotent calls retryable.
	if ce.Code == core.CodeOverloaded || ce.Code == core.CodeDraining {
		ce.NotExecuted = true
	}
	return ce
}
