// The feedback endpoint of the online learning loop:
//
//	POST /db/{name}/feedback  {"question": "...", "chosen": 0}
//	POST /db/{name}/feedback  {"question": "...", "sql": "SELECT ..."}
//	POST /feedback            (the -spec tenant, same bodies)
//
// A submission either endorses one of the candidates a /translate
// response offered ("chosen", an index into its candidates array) or
// supplies a corrected SQL text. Corrections are validated — re-parsed
// and re-bound against the schema — before anything is written;
// invalid SQL is rejected with 422 and never reaches disk. Accepted
// records are appended to the durable feedback WAL (fsynced before the
// 202 acknowledgement) and wake the background trainer; see
// internal/feedback and gar.Trainer.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/feedback"
)

type feedbackRequest struct {
	Question string `json:"question"`
	// Chosen endorses one candidate of a prior /translate response for
	// the same question: its index in the candidates array.
	Chosen *int `json:"chosen,omitempty"`
	// SQL supplies a corrected query instead. Exactly one of Chosen and
	// SQL must be set.
	SQL string `json:"sql,omitempty"`
}

type feedbackResponse struct {
	Tenant   string `json:"tenant,omitempty"`
	Accepted bool   `json:"accepted"`
	Seq      uint64 `json:"seq"`
	Source   string `json:"source"`
}

// decodeFeedback reads and validates a feedback request body, writing
// the error response itself when the body is unusable.
func decodeFeedback(w http.ResponseWriter, r *http.Request, maxBody int64) (feedbackRequest, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req feedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorJSON{Error: "bad request body: " + err.Error()})
		return req, false
	}
	if strings.TrimSpace(req.Question) == "" {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "empty question"})
		return req, false
	}
	if (req.Chosen == nil) == (req.SQL == "") {
		writeJSON(w, http.StatusBadRequest, errorJSON{Error: "provide exactly one of chosen or sql"})
		return req, false
	}
	return req, true
}

// handleFeedback is the POST /db/{name}/feedback endpoint. It
// validates one submission against the tenant's live system and, if it
// survives, durably records it and wakes the tenant's trainer.
// Submissions refused at validation count as rejected; transport and
// storage errors are the server's fault, not the client's, and do not.
func (s *fleetServer) handleFeedback(w http.ResponseWriter, r *http.Request, name string) {
	req, ok := decodeFeedback(w, r, s.cfg.MaxBody)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	h, err := s.reg.Acquire(ctx, name)
	if err != nil {
		writeAcquireError(w, err)
		return
	}
	defer h.Release()
	flog, trainer, sys := h.FeedbackLog(), h.Trainer(), h.Sys()
	if flog == nil || trainer == nil {
		writeJSON(w, http.StatusNotImplemented, errorJSON{Error: "feedback not enabled (start with -feedback)"})
		return
	}
	if !sys.Ready() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "tenant " + name + ": no snapshot published"})
		return
	}

	rec := feedback.Record{
		Question:   req.Question,
		Generation: sys.Generation(),
	}
	if req.Chosen != nil {
		// Endorsing a candidate: re-translate the question on the live
		// snapshot and index into its candidates, so the endorsed SQL is
		// exactly what the system offered.
		res, err := sys.TranslateContext(ctx, req.Question)
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorJSON{Error: "translating question: " + err.Error()})
			return
		}
		if *req.Chosen < 0 || *req.Chosen >= len(res.Candidates) {
			h.CountFeedback(false)
			writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: "chosen index out of range (the question has " +
				strconv.Itoa(len(res.Candidates)) + " candidates)"})
			return
		}
		rec.SQL = res.Candidates[*req.Chosen].SQL
		rec.Source = feedback.SourceChosen
	} else {
		// A correction: re-parse and re-bind against the schema before
		// anything touches disk.
		if err := sys.ValidateSQL(req.SQL); err != nil {
			h.CountFeedback(false)
			writeJSON(w, http.StatusUnprocessableEntity, errorJSON{Error: err.Error()})
			return
		}
		rec.SQL = req.SQL
		rec.Source = feedback.SourceCorrected
	}

	seq, err := flog.Append(rec)
	if err != nil {
		// Not acknowledged: the record is not durable, the client should
		// retry. No sequence number was consumed.
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: "feedback not recorded: " + err.Error()})
		return
	}
	rec.Seq = seq
	trainer.ObserveFeedback(ctx, rec)
	trainer.Notify()
	h.CountFeedback(true)
	writeJSON(w, http.StatusAccepted, feedbackResponse{
		Tenant:   name,
		Accepted: true,
		Seq:      seq,
		Source:   rec.Source,
	})
}
