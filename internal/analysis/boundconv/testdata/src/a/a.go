// Package a exercises the boundconv analyzer: negative bounds exist only
// in the wire encoding, where they stand for +Inf.
package a

import "math"

// knnRequest mirrors the wire struct in ced/internal/remote.
type knnRequest struct {
	Query string
	K     int
	Bound float64
}

const noBound = -1

func wireBound(b float64) float64 {
	if math.IsInf(b, 1) {
		return noBound
	}
	return b
}

func fromWireBound(b float64) float64 {
	if b < 0 {
		return math.Inf(1)
	}
	return b
}

// Request mirrors search.Request: the pruning bound rides inside it.
type Request struct {
	k     int
	bound float64
}

// KNN mirrors search.KNN, the k-NN request constructor.
func KNN(k int, bound float64) Request { return Request{k: k, bound: bound} }

// negLiteral smuggles the wire sentinel into a local request.
func negLiteral() Request {
	return KNN(5, -1) // want `negative bound -1 passed to KNN`
}

// negConst does the same through a named constant.
func negConst() Request {
	return KNN(5, noBound) // want `negative bound -1 passed to KNN`
}

// infBound is the sanctioned local spelling of "no bound".
func infBound() Request {
	return KNN(5, math.Inf(1))
}

// finiteBound is an ordinary pruning radius.
func finiteBound() Request {
	return KNN(5, 0.25)
}

// waivedNeg is a reviewed exception.
func waivedNeg() Request {
	return KNN(5, -1) //ced:boundconv-ok: exercising the reject-all path.
}

// encode builds a wire request the sanctioned way.
func encode(b float64) knnRequest {
	return knnRequest{Query: "q", K: 3, Bound: wireBound(b)}
}

// encodeRaw stores a local bound without encoding it.
func encodeRaw(b float64) knnRequest {
	return knnRequest{Query: "q", K: 3, Bound: b} // want `wire bound field knnRequest.Bound set without wireBound`
}

// assignRaw writes the field without encoding.
func assignRaw(req *knnRequest, b float64) {
	req.Bound = b // want `wire bound field req.Bound written without wireBound`
}

// assignEncoded writes the field the sanctioned way.
func assignEncoded(req *knnRequest, b float64) {
	req.Bound = wireBound(b)
}

// decode reads the field the sanctioned way.
func decode(req knnRequest) float64 {
	return fromWireBound(req.Bound)
}

// compareRaw compares the still-encoded value, which silently treats the
// "+Inf" sentinel as the tightest bound imaginable.
func compareRaw(req knnRequest, r float64) bool {
	return r <= req.Bound // want `wire bound field req.Bound used while still encoded`
}

// readWaived is a reviewed raw read (e.g. logging the wire value).
func readWaived(req knnRequest) float64 {
	return req.Bound //ced:boundconv-ok: logging the raw wire value.
}
