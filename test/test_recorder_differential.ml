(* Recorder differential layer: attaching a flight recorder must be
   strictly observational.  For every corpus case x registry policy, on
   both driver cores, the canonical schedule dump with a recorder attached
   must be byte-identical to the recorder-off run — and the two cores'
   recorders must agree byte-for-byte on the exported rejsched.trace/2
   NDJSON (both cores record the same events at the same sites in the
   same float-operation order). *)

open Sched_model
open Sched_sim
module P = Sched_experiments.Policy_registry
module Corpus = Sched_fuzz.Corpus
module Rec = Sched_obs.Recorder
module TE = Trace_export

let check_case ~what (e : P.entry) instance =
  (* Deadline-bearing instances skip the in-driver audit for the same
     reason the flat differential suite does: most policies legitimately
     ignore deadlines, and byte-identity is the property under test. *)
  let check = not (Instance.has_deadlines instance) in
  let canonical s = Serialize.schedule_to_canonical_string s in
  let run ~impl ~recorder = fst (e.P.run_impl ?recorder ~impl ~check instance) in
  let boxed_off = canonical (run ~impl:Driver.Boxed ~recorder:None) in
  let flat_off = canonical (run ~impl:Driver.Flat ~recorder:None) in
  let rc_boxed = Rec.create ~capacity:4096 () in
  let boxed_on = canonical (run ~impl:Driver.Boxed ~recorder:(Some rc_boxed)) in
  let rc_flat = Rec.create ~capacity:4096 () in
  let flat_on = canonical (run ~impl:Driver.Flat ~recorder:(Some rc_flat)) in
  if not (String.equal boxed_off boxed_on) then
    Alcotest.failf "%s: recorder perturbed the boxed schedule" what;
  if not (String.equal flat_off flat_on) then
    Alcotest.failf "%s: recorder perturbed the flat schedule" what;
  if not (String.equal boxed_off flat_off) then
    Alcotest.failf "%s: cores diverge (independent of the recorder)" what;
  Alcotest.(check bool) (what ^ ": events recorded") true (Rec.total rc_boxed > 0);
  let nb = TE.recorder_to_ndjson rc_boxed and nf = TE.recorder_to_ndjson rc_flat in
  if not (String.equal nb nf) then
    Alcotest.failf "%s: recorder contents diverge across cores:\n--- boxed ---\n%s--- flat ---\n%s"
      what nb nf

let test_corpus_all_policies () =
  List.iter
    (fun (c : Corpus.case) ->
      List.iter
        (fun (e : P.entry) ->
          check_case ~what:(Printf.sprintf "%s/%s" c.Corpus.name e.P.name) e c.Corpus.instance)
        P.all)
    (Corpus.seeds ())

(* A ring too small for the run must wrap identically on both cores and
   still leave the schedule untouched — the forensics configuration
   (small ring, long run) is exactly this shape. *)
let test_wrapping_ring_identical () =
  let inst = Test_util.random_instance ~seed:29 ~n:120 ~m:3 () in
  let entry = match P.find "flow-reject" with Some e -> e | None -> Alcotest.fail "registry" in
  let base = Serialize.schedule_to_canonical_string (fst (entry.P.run_impl ~impl:Driver.Flat ~check:false inst)) in
  let rc_boxed = Rec.create ~capacity:16 () in
  let sb = fst (entry.P.run_impl ~recorder:rc_boxed ~impl:Driver.Boxed ~check:false inst) in
  let rc_flat = Rec.create ~capacity:16 () in
  let sf = fst (entry.P.run_impl ~recorder:rc_flat ~impl:Driver.Flat ~check:false inst) in
  Alcotest.(check string) "schedule untouched (boxed)" base
    (Serialize.schedule_to_canonical_string sb);
  Alcotest.(check string) "schedule untouched (flat)" base
    (Serialize.schedule_to_canonical_string sf);
  Alcotest.(check bool) "ring wrapped" true (Rec.dropped rc_flat > 0);
  Alcotest.(check int) "same drop count" (Rec.dropped rc_boxed) (Rec.dropped rc_flat);
  Alcotest.(check string) "wrapped tails byte-identical"
    (TE.recorder_to_ndjson rc_boxed) (TE.recorder_to_ndjson rc_flat)

(* Rolling retirement drops a settled job's handle, and with it the only
   copy of its sizes, so every size the driver records must be read while
   the job is live.  A retire-mode session with a recorder and a trace
   attached must record exactly what the batch run records, on fleets
   where pending jobs are rejected off machine 0 (Rule 2 victims). *)
let test_retire_session_records_like_batch () =
  let trace_lines tr = String.concat "" (List.map Trace_export.entry_line (Trace.events tr)) in
  let check (type a) ~what ~seed (policy : a Driver.policy) =
    let inst = Test_util.random_instance ~weighted:true ~seed ~n:80 ~m:3 () in
    let rc_batch = Rec.create ~capacity:4096 () and tr_batch = Trace.create () in
    ignore (Driver.run_schedule ~recorder:rc_batch ~trace:tr_batch ~impl:Driver.Flat policy inst);
    let rc = Rec.create ~capacity:4096 () and tr = Trace.create () in
    let s =
      Driver.Session.open_session ~recorder:rc ~trace:tr ~retire:true
        ~machines:inst.Instance.machines policy
    in
    Array.iter (Driver.Session.feed s) (Instance.jobs_by_release inst);
    ignore (Driver.Session.close s);
    let rejected_pending_off_0 =
      List.exists
        (fun (en : Trace.entry) ->
          match en.Trace.event with
          | Trace.Reject { was_running = false; machine; _ } -> machine > 0
          | _ -> false)
        (Trace.events tr_batch)
    in
    Alcotest.(check bool) (what ^ ": a pending job rejected off machine 0") true
      rejected_pending_off_0;
    Alcotest.(check string) (what ^ ": recorder") (TE.recorder_to_ndjson rc_batch)
      (TE.recorder_to_ndjson rc);
    Alcotest.(check string) (what ^ ": trace") (trace_lines tr_batch) (trace_lines tr)
  in
  check ~what:"flow-reject" ~seed:31 Rejection.Flow_reject.(policy (config ~eps:0.3 ()));
  check ~what:"flow-reject-weighted" ~seed:32
    Rejection.Flow_reject_weighted.(policy (config ~eps:0.3 ()))

let suite =
  [
    Alcotest.test_case "corpus x policies x cores, recorder on/off" `Quick
      test_corpus_all_policies;
    Alcotest.test_case "wrapping ring identical across cores" `Quick
      test_wrapping_ring_identical;
    Alcotest.test_case "retire-mode session records like the batch run" `Quick
      test_retire_session_records_like_batch;
  ]
