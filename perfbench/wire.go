package main

// Mirrors of the server's wire shapes. The server's request and response
// types are unexported, so the benchmark declares the same JSON shapes to
// build request bodies, to check responses field by field, and to time
// encoding/json decode and encode the way the routes do.

// repairParams mirrors the "repair" opt-in of POST /v1/simplify.
type repairParams struct {
	Window   int     `json:"window,omitempty"`
	MaxSpeed float64 `json:"max_speed,omitempty"`
}

// simplifyRequest mirrors POST /v1/simplify.
type simplifyRequest struct {
	Algorithm string        `json:"algorithm,omitempty"`
	Measure   string        `json:"measure"`
	Ratio     float64       `json:"ratio,omitempty"`
	Bound     *float64      `json:"bound,omitempty"`
	Repair    *repairParams `json:"repair,omitempty"`
	Points    [][3]float64  `json:"points"`
}

// repairReport mirrors the per-defect repair accounting of a response.
type repairReport struct {
	Pushed     int `json:"pushed"`
	Emitted    int `json:"emitted"`
	NonFinite  int `json:"non_finite"`
	Late       int `json:"late"`
	Reordered  int `json:"reordered"`
	Duplicates int `json:"duplicates"`
	Outliers   int `json:"outliers"`
}

// simplifyResponse mirrors the answer of POST /v1/simplify.
type simplifyResponse struct {
	Algorithm string        `json:"algorithm"`
	Mode      string        `json:"mode"`
	Kept      int           `json:"kept"`
	Of        int           `json:"of"`
	Error     float64       `json:"error"`
	Bound     *float64      `json:"bound,omitempty"`
	BoundMet  *bool         `json:"bound_met,omitempty"`
	Repair    *repairReport `json:"repair,omitempty"`
	Points    [][3]float64  `json:"points"`
}

// batchItem and batchRequest mirror POST /v1/simplify/batch.
type batchItem struct {
	Points [][3]float64 `json:"points"`
}

type batchRequest struct {
	Algorithm string      `json:"algorithm"`
	Measure   string      `json:"measure"`
	Ratio     float64     `json:"ratio"`
	Items     []batchItem `json:"items"`
}

type itemFailure struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

type batchItemResult struct {
	Kept    int          `json:"kept,omitempty"`
	Of      int          `json:"of,omitempty"`
	Error   *float64     `json:"error,omitempty"`
	Points  [][3]float64 `json:"points,omitempty"`
	Failure *itemFailure `json:"failure,omitempty"`
}

type batchResponse struct {
	Algorithm string            `json:"algorithm"`
	Mode      string            `json:"mode"`
	Failed    int               `json:"failed"`
	Items     []batchItemResult `json:"items"`
}

// streamCreateRequest mirrors POST /v1/stream.
type streamCreateRequest struct {
	Algorithm string `json:"algorithm"`
	Measure   string `json:"measure"`
	W         int    `json:"w"`
}

// pushRequest mirrors POST /v1/stream/{id}/points.
type pushRequest struct {
	Points [][3]float64 `json:"points"`
}
