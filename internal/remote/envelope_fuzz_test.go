package remote

import (
	"errors"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"distcfd/internal/core"
)

// FuzzErrorEnvelope holds the client's error decoder — it parses text a
// peer chose — to its contract. Decoding arbitrary rpc.ServerError text
// never panics and either passes the error through untouched or yields
// a *core.CodedError for text that opened with the envelope prefix. And
// an error the serving side can envelope survives encodeError →
// net/rpc's flattening → decodeError with its Code, Msg and RetryAfter
// intact and NotExecuted re-derived from the code (the admission codes
// reject strictly before the call runs).
func FuzzErrorEnvelope(f *testing.F) {
	f.Add("[distcfd:overloaded,retry-after=50ms] core: site 1 overloaded", uint8(2), "busy", int64(50*time.Millisecond))
	f.Add("[distcfd:stale] incremental state stale", uint8(0), "stale] [distcfd:x] y", int64(0))
	f.Add("[distcfd:,retry-after=,retry-after=-1h,] ", uint8(3), "", int64(-5))
	f.Add("[distcfd:unavailable", uint8(1), "remote: boom", int64(1<<62))
	f.Add("can't find service SiteV7.Info", uint8(9), "] ", int64(1))
	codes := []core.ErrCode{core.CodeStale, core.CodeUnavailable, core.CodeOverloaded, core.CodeDraining}
	f.Fuzz(func(t *testing.T, text string, pick uint8, msg string, retryAfter int64) {
		in := rpc.ServerError(text)
		var ce *core.CodedError
		if dec := decodeError(in); errors.As(dec, &ce) {
			if !strings.HasPrefix(text, codePrefix) {
				t.Fatalf("decodeError typed un-enveloped text %q as %+v", text, ce)
			}
		} else if dec != error(in) {
			t.Fatalf("decodeError(%q) = %v: neither typed nor passed through", text, dec)
		}

		code := codes[int(pick)%len(codes)]
		admission := code == core.CodeOverloaded || code == core.CodeDraining
		sent := &core.CodedError{Code: code, Msg: msg, NotExecuted: admission, RetryAfter: time.Duration(retryAfter)}
		got := decodeError(rpc.ServerError(encodeError(sent).Error()))
		if !errors.As(got, &ce) {
			t.Fatalf("%+v crossed the envelope as untyped %v", sent, got)
		}
		want := *sent
		if want.RetryAfter < 0 {
			want.RetryAfter = 0 // a non-positive hint is no hint and is not sent
		}
		if *ce != want {
			t.Fatalf("envelope round trip: sent %+v, got %+v", want, *ce)
		}
	})
}
