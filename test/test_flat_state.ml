(* Property tests for the flat core's data structures: Flat_state's
   instance mirror, the int-encoded event keys, the merged pop over the
   arrival cursor and completion heap, and the two flat heaps — each
   checked against its boxed counterpart, a worked example or an
   algebraic law. *)

open Sched_model
open Sched_sim
module Rng = Sched_stats.Rng
module Key = Pqueue.Events.Key

let qtest t = QCheck_alcotest.to_alcotest t

(* --- of_instance / accessor round-trip ---------------------------------- *)

(* The boxed driver's density order (its [cmp_density]): weight/p_ij
   descending, ties by release; the heap breaks what is left on the id. *)
let boxed_density_cmp i (a : Job.t) (b : Job.t) =
  let da = a.Job.weight /. Job.size a i and db = b.Job.weight /. Job.size b i in
  if da > db then -1
  else if da < db then 1
  else if a.Job.release < b.Job.release then -1
  else if a.Job.release > b.Job.release then 1
  else 0

let random_instance_of seed =
  let weighted = seed land 1 = 1 and restricted = seed mod 3 = 0 in
  Test_util.random_instance ~weighted ~restricted ~seed ~n:(5 + (seed mod 40))
    ~m:(1 + (seed mod 5)) ()

let prop_of_instance_round_trip =
  QCheck.Test.make ~name:"of_instance mirrors every job/machine column" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let instance = random_instance_of seed in
      let fs = Flat_state.of_instance instance in
      let n = Instance.n instance and m = Instance.m instance in
      assert (Flat_state.n fs = n);
      assert (Flat_state.m fs = m);
      assert (Float.equal (Flat_state.total_weight fs) (Instance.total_weight instance));
      Array.iter
        (fun (j : Job.t) ->
          let id = j.Job.id in
          assert ((Flat_state.job fs id).Job.id = id);
          assert (Float.equal (Flat_state.release fs id) j.Job.release);
          assert (Float.equal (Flat_state.weight fs id) j.Job.weight);
          assert (Float.equal (Flat_state.min_size fs id) (Job.min_size j));
          for i = 0 to m - 1 do
            let p = Job.size j i in
            assert (Float.equal (Flat_state.size fs ~machine:i ~job:id) p);
            assert (Flat_state.eligible fs ~machine:i ~job:id = Job.eligible j i)
          done;
          (* Before any event, every job is unreleased. *)
          assert (Flat_state.loc fs id = Flat_state.loc_unreleased))
        (Instance.jobs_by_release instance);
      for i = 0 to m - 1 do
        let mc = Instance.machine instance i in
        assert (Float.equal (Flat_state.mach_speed fs i) mc.Machine.speed);
        assert (Float.equal (Flat_state.alpha fs i) mc.Machine.alpha)
      done;
      (* The density order reads w_j /. p_ij off the job row: queue every
         eligible job on each machine, then drain by head, and the flat
         density heap must name the boxed [by_density] heap's head every
         time. *)
      for i = 0 to m - 1 do
        let boxed = Pqueue.Indexed.create ~cmp:(boxed_density_cmp i) () in
        Array.iter
          (fun (j : Job.t) ->
            if Job.eligible j i then begin
              Flat_state.pend_add fs i j.Job.id;
              Pqueue.Indexed.add boxed ~id:j.Job.id ~key:j ()
            end)
          (Instance.jobs_by_release instance);
        while not (Pqueue.Indexed.is_empty boxed) do
          let head =
            match Pqueue.Indexed.min_elt boxed with Some (id, _, ()) -> id | None -> -1
          in
          assert (Flat_state.head_density fs i = head);
          assert (Flat_state.pend_remove fs i head);
          ignore (Pqueue.Indexed.remove boxed ~id:head)
        done;
        assert (Flat_state.head_density fs i = -1)
      done;
      Flat_state.invariant fs)

(* --- loc code algebra --------------------------------------------------- *)

let prop_loc_codes =
  QCheck.Test.make ~name:"loc pending/running codes decode to their machine" ~count:200
    QCheck.(int_bound 100_000)
    (fun machine ->
      let p = Flat_state.loc_pending ~machine and r = Flat_state.loc_running ~machine in
      Flat_state.loc_is_pending p
      && (not (Flat_state.loc_is_running p))
      && Flat_state.loc_is_running r
      && (not (Flat_state.loc_is_pending r))
      && Flat_state.loc_machine p = machine
      && Flat_state.loc_machine r = machine
      && p <> r
      && (not (Flat_state.loc_is_pending Flat_state.loc_unreleased))
      && (not (Flat_state.loc_is_running Flat_state.loc_settled)))

(* --- event-key encode/decode bijection ---------------------------------- *)

(* QCheck's int_bound caps below the 40/42-bit ranges, so wide values are
   composed from two independent 20/22-bit halves — uniform over the whole
   encodable range. *)
let wide_seq = QCheck.(map (fun (hi, lo) -> (hi lsl 20) lor lo) (pair (int_bound 0xFFFFF) (int_bound 0xFFFFF)))

let wide_epoch =
  QCheck.(map (fun (hi, lo) -> (hi lsl 20) lor lo) (pair (int_bound 0x3FFFFF) (int_bound 0xFFFFF)))

(* A tag is its sequence number: encoding is the identity on the whole
   range, so tags order exactly as the sequence does. *)
let prop_tag_round_trip =
  QCheck.Test.make ~name:"tag encode/decode bijection over the full seq range" ~count:500
    wide_seq
    (fun seq ->
      Key.finish_tag ~seq = seq
      && (seq = Key.max_seq || Key.finish_tag ~seq < Key.finish_tag ~seq:(seq + 1)))

let prop_payload_round_trip =
  QCheck.Test.make ~name:"finish payload encode/decode bijection" ~count:500
    QCheck.(pair (int_bound 0xFFFFF) wide_epoch)
    (fun (machine, epoch) ->
      let payload = Key.finish_payload ~machine ~epoch in
      Key.machine_of ~payload = machine && Key.epoch_of ~payload = epoch)

let test_key_edges () =
  (* Extremes of every encodable range survive the round trip... *)
  List.iter
    (fun seq ->
      Alcotest.(check int) "seq" seq (Key.finish_tag ~seq))
    [ 0; 1; Key.max_seq ];
  List.iter
    (fun (machine, epoch) ->
      let payload = Key.finish_payload ~machine ~epoch in
      Alcotest.(check int) "machine" machine (Key.machine_of ~payload);
      Alcotest.(check int) "epoch" epoch (Key.epoch_of ~payload))
    [ (0, 0); (Key.max_machine, 0); (0, Key.max_epoch); (Key.max_machine, Key.max_epoch) ];
  (* ...and one past each raises. *)
  let must_raise what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted an out-of-range value" what
  in
  must_raise "finish_tag" (fun () -> Key.finish_tag ~seq:(Key.max_seq + 1));
  must_raise "finish_tag neg" (fun () -> Key.finish_tag ~seq:(-1));
  must_raise "payload machine" (fun () ->
      Key.finish_payload ~machine:(Key.max_machine + 1) ~epoch:0);
  must_raise "payload epoch" (fun () ->
      Key.finish_payload ~machine:0 ~epoch:(Key.max_epoch + 1))

(* --- Key.compare is a total order --------------------------------------- *)

(* Dyadic keys from a tiny grid (plus -0.) force heavy key collisions so the
   tag leg of the order actually gets exercised. *)
let ev_arb =
  QCheck.(
    map
      (fun (k8, tag, neg) ->
        let key = if neg && k8 = 0 then -0. else float_of_int (k8 - 4) /. 4. in
        (key, tag))
      (triple (int_bound 8) (int_bound 30) bool))

let sign x = compare x 0

let prop_key_total_order =
  QCheck.Test.make ~name:"Key.compare is a total order (tags decide ties)" ~count:2000
    QCheck.(triple ev_arb ev_arb ev_arb)
    (fun ((ka, ta), (kb, tb), (kc, tc)) ->
      let c (k1, t1) (k2, t2) = Key.compare k1 t1 k2 t2 in
      let ab = c (ka, ta) (kb, tb)
      and ba = c (kb, tb) (ka, ta)
      and bc = c (kb, tb) (kc, tc)
      and ac = c (ka, ta) (kc, tc) in
      (* reflexivity, antisymmetry, transitivity, tag-decides-totality *)
      c (ka, ta) (ka, ta) = 0
      && sign ab = -sign ba
      && (not (ab <= 0 && bc <= 0) || ac <= 0)
      && (not (ab >= 0 && bc >= 0) || ac >= 0)
      && (ab <> 0 || (Float.equal (Float.abs ka) (Float.abs kb) && ta = tb)))

let test_key_negative_zero () =
  (* Primitive float comparison: -0. and 0. are the same key, so the tag
     decides — matching the boxed heap's behaviour. *)
  Alcotest.(check int) "-0. = 0., tag decides" (-1) (Key.compare (-0.) 1 0. 2);
  Alcotest.(check int) "equal" 0 (Key.compare (-0.) 7 0. 7)

(* --- Events pops in Key.compare order, agreeing with the boxed heap ----- *)

let prop_events_matches_boxed =
  QCheck.Test.make ~name:"Events pops the boxed heap's exact sequence" ~count:300
    QCheck.(pair (list_of_size Gen.(int_bound 60) ev_arb) (int_bound 1_000_000))
    (fun (evs, salt) ->
      (* Tags must be unique while queued: replace the generated tag by a
         per-element rank drawn from a salted shuffle, keeping ties on keys. *)
      let evs = Array.of_list evs in
      let rng = Rng.create salt in
      let order = Array.init (Array.length evs) Fun.id in
      Rng.shuffle rng order;
      let boxed = Pqueue.create () and flat = Pqueue.Events.create () in
      Array.iteri
        (fun k i ->
          let key, _ = evs.(i) in
          let tag = order.(k) in
          Pqueue.push boxed ~key ~tag k;
          Pqueue.Events.push flat ~key ~tag ~payload:k)
        order;
      let rec drain () =
        match Pqueue.pop boxed with
        | None -> Pqueue.Events.is_empty flat
        | Some (k, t, p) ->
            Pqueue.Events.pop flat
            && Float.equal (Pqueue.Events.key flat) k
            && Pqueue.Events.tag flat = t
            && Pqueue.Events.payload flat = p
            && drain ()
      in
      Array.length evs = Pqueue.Events.size flat && drain ())

(* --- the merged pop: arrival cursor against the completion heap --------- *)

type popped = Arr of int | Fin of int

let pop_all fs ~limit =
  let rec go acc =
    if Flat_state.next_event_before fs ~limit then begin
      let payload = Flat_state.ev_payload fs in
      let ev =
        if Flat_state.ev_is_arrival fs then Arr payload else Fin (Key.machine_of ~payload)
      in
      go ((ev, Flat_state.clock fs) :: acc)
    end
    else List.rev acc
  in
  go []

let show_popped l =
  String.concat " "
    (List.map
       (fun (ev, t) ->
         match ev with
         | Arr id -> Printf.sprintf "arr%d@%g" id t
         | Fin i -> Printf.sprintf "fin%d@%g" i t)
       l)

let test_merged_pop_order () =
  let fs = Flat_state.of_stream ~machines:(Machine.fleet 2) in
  Alcotest.(check (float 0.)) "idle next_key" infinity (Flat_state.next_key fs);
  Alcotest.(check bool) "idle pop" false (Flat_state.next_event_before fs ~limit:infinity);
  let job id release = Job.create ~id ~release ~sizes:[| 1.; 1. |] () in
  Flat_state.add_job fs (job 0 1.);
  Flat_state.add_job fs (job 1 1.);
  Flat_state.add_job fs (job 2 2.);
  Alcotest.(check (float 0.)) "next_key = cursor head" 1. (Flat_state.next_key fs);
  (* Completions scheduled after the arrivals were fed: later sequence
     numbers, yet each pops before an arrival at the same time. *)
  Flat_state.push_finish fs ~machine:0 ~time:1.;
  Flat_state.push_finish fs ~machine:1 ~time:0.5;
  Flat_state.push_finish fs ~machine:0 ~time:2.;
  Flat_state.push_finish fs ~machine:1 ~time:2.;
  Alcotest.(check (float 0.)) "next_key = heap top" 0.5 (Flat_state.next_key fs);
  Alcotest.(check int) "events pushed" 7 (Flat_state.events_pushed fs);
  Alcotest.(check string) "bounded drain stops at the horizon" "fin1@0.5"
    (show_popped (pop_all fs ~limit:0.9));
  Alcotest.(check (float 0.)) "clock at the last popped key" 0.5 (Flat_state.clock fs);
  Alcotest.(check (float 0.)) "tie: next_key" 1. (Flat_state.next_key fs);
  Alcotest.(check string)
    "completion first at equal keys; arrivals in feed order; completions in tag order"
    "fin0@1 arr0@1 arr1@1 fin0@2 fin1@2 arr2@2"
    (show_popped (pop_all fs ~limit:infinity));
  Alcotest.(check (float 0.)) "drained next_key" infinity (Flat_state.next_key fs)

(* Session.next_key is the smaller of the cursor head's release and the
   heap top's key, and the loop pops a completion before an arrival at
   the same time. *)
let test_session_next_key () =
  let module S = Driver.Session in
  let trace = Trace.create () in
  let s =
    S.open_session ~trace ~machines:(Machine.fleet 1) Sched_baselines.Greedy_dispatch.spt
  in
  let feed id release size = S.feed s (Job.create ~id ~release ~sizes:[| size |] ()) in
  let key what expect = Alcotest.(check (float 0.)) what expect (S.next_key s) in
  key "idle" infinity;
  feed 0 0. 5.;
  key "cursor only" 0.;
  S.drain_until s 0.;
  key "heap only: job 0 finishes at 5" 5.;
  feed 1 3. 1.;
  key "cursor below heap" 3.;
  S.drain_until s 3.;
  key "heap below empty cursor" 5.;
  feed 2 5. 1.;
  feed 3 5. 1.;
  key "cursor and heap tie" 5.;
  feed 4 9. 1.;
  S.drain_until s 5.;
  (* At 5: job 0 completes and job 1 starts (finishing at 6), then jobs
     2 and 3 arrive in feed order. *)
  key "heap below cursor" 6.;
  let order =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.Trace.event with
        | Trace.Complete { job; _ } -> Some (Printf.sprintf "complete%d" job)
        | Trace.Dispatch { job; _ } when Float.equal e.Trace.time 5. ->
            Some (Printf.sprintf "dispatch%d" job)
        | _ -> None)
      (Trace.events trace)
  in
  Alcotest.(check (list string)) "event order at t=5" [ "complete0"; "dispatch2"; "dispatch3" ]
    order;
  ignore (S.close s)

(* Rolling retirement feeds and drains one job at a time; the cursor
   reclaims popped slots, so its backing array never outgrows its first
   allocation however long the stream runs. *)
let test_retire_cursor_bounded () =
  let fs = Flat_state.of_stream ~machines:(Machine.fleet 2) in
  Flat_state.set_retire fs true;
  let widest = ref 0 in
  for id = 0 to 9_999 do
    let release = float_of_int id in
    Flat_state.add_job fs (Job.create ~id ~release ~sizes:[| 1.; 2. |] ());
    if not (Flat_state.next_event_before fs ~limit:release) then
      Alcotest.failf "job %d did not pop at its release" id;
    widest := max !widest (Flat_state.arrival_capacity fs)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cursor capacity %d stays <= 16 over 10^4 jobs" !widest)
    true (!widest <= 16);
  Alcotest.(check (float 0.)) "drained" infinity (Flat_state.next_key fs)

(* --- Iheap reproduces Indexed's slot layout exactly ---------------------- *)

(* The driver exposes heap-array order to policies (pending_into), so the
   flat heap must not merely agree on the minimum: after any operation
   sequence the two heap arrays must match slot for slot. *)
(* Named comparators (RJL002 trusts audited named functions, and the
   primitive float comparisons are deliberate: this is the drivers'
   comparison semantics). *)
let float_cmp (a : float) (b : float) = if a < b then -1 else if a > b then 1 else 0

let keyed_less (keys : float array) a b =
  let ka = keys.(a) and kb = keys.(b) in
  if ka < kb then true else if ka > kb then false else a < b

let int_less (a : int) (b : int) = a < b

let prop_iheap_layout_identity =
  QCheck.Test.make ~name:"Iheap slot layout = Indexed slot layout, always" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let rng = Rng.create salt in
      let nids = 2 + Rng.int rng 40 in
      (* Keys from a coarse dyadic grid: collisions are the interesting case. *)
      let keys = Array.init nids (fun _ -> float_of_int (Rng.int rng 8) /. 4.) in
      let boxed = Pqueue.Indexed.create ~cmp:float_cmp () in
      let flat = Pqueue.Iheap.create ~less:(keyed_less keys) () in
      let present = Array.make nids false in
      let layouts_match () =
        Pqueue.Iheap.size flat = Pqueue.Indexed.size boxed
        && begin
             let slots = ref [] in
             Pqueue.Indexed.iter boxed ~f:(fun id _ () -> slots := id :: !slots);
             let expect = Array.of_list (List.rev !slots) in
             let ok = ref true in
             Array.iteri (fun s id -> if Pqueue.Iheap.get flat s <> id then ok := false) expect;
             !ok
           end
        && Pqueue.Iheap.min_id flat
           = (match Pqueue.Indexed.min_elt boxed with Some (id, _, ()) -> id | None -> -1)
        && Pqueue.Iheap.invariant flat
        && Pqueue.Indexed.invariant boxed
      in
      let steps = 30 + Rng.int rng 200 in
      let ok = ref (layouts_match ()) in
      for _ = 1 to steps do
        let id = Rng.int rng nids in
        if present.(id) then begin
          assert (Pqueue.Iheap.remove flat ~id);
          assert (Pqueue.Indexed.remove boxed ~id <> None);
          present.(id) <- false
        end
        else begin
          Pqueue.Iheap.add flat ~id;
          Pqueue.Indexed.add boxed ~id ~key:keys.(id) ();
          present.(id) <- true
        end;
        if not (layouts_match ()) then ok := false
      done;
      !ok)

let test_iheap_errors () =
  let h = Pqueue.Iheap.create ~less:int_less () in
  Pqueue.Iheap.add h ~id:3;
  (match Pqueue.Iheap.add h ~id:3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate add accepted");
  (match Pqueue.Iheap.add h ~id:(-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative id accepted");
  Alcotest.(check bool) "absent remove" false (Pqueue.Iheap.remove h ~id:7);
  Alcotest.(check bool) "present remove" true (Pqueue.Iheap.remove h ~id:3);
  Alcotest.(check int) "empty min" (-1) (Pqueue.Iheap.min_id h)

(* --- Flat_state pending aggregates pin to zero --------------------------- *)

let test_pending_zero_pin () =
  let instance =
    Test_util.instance ~machines:2 [ (0., [| 0.25; 0.5 |]); (0., [| 1.25; 0.75 |]) ]
  in
  let fs = Flat_state.of_instance instance in
  Flat_state.pend_add fs 0 0;
  Flat_state.pend_add fs 0 1;
  Alcotest.(check int) "count" 2 (Flat_state.pend_count fs 0);
  Alcotest.(check (float 0.)) "work" 1.5 (Flat_state.pend_work fs 0);
  Alcotest.(check bool) "remove" true (Flat_state.pend_remove fs 0 1);
  Alcotest.(check bool) "remove" true (Flat_state.pend_remove fs 0 0);
  (* Emptying the queue pins work/weight to exactly 0., not a rounding
     residue — same discipline as the boxed driver. *)
  Alcotest.(check bool) "work pinned" true (Float.equal 0. (Flat_state.pend_work fs 0));
  Alcotest.(check bool) "weight pinned" true (Float.equal 0. (Flat_state.pend_weight fs 0));
  Alcotest.(check int) "empty heads" (-1) (Flat_state.head_spt fs 0);
  Alcotest.(check bool) "invariant" true (Flat_state.invariant fs)

let suite =
  [
    qtest prop_of_instance_round_trip;
    qtest prop_loc_codes;
    qtest prop_tag_round_trip;
    qtest prop_payload_round_trip;
    Alcotest.test_case "key range edges + out-of-range raises" `Quick test_key_edges;
    qtest prop_key_total_order;
    Alcotest.test_case "-0. keys equal 0. keys" `Quick test_key_negative_zero;
    qtest prop_events_matches_boxed;
    Alcotest.test_case "merged pop: completions first at equal keys" `Quick test_merged_pop_order;
    Alcotest.test_case "Session.next_key = min(cursor head, heap top)" `Quick
      test_session_next_key;
    Alcotest.test_case "retire: cursor backing array stays bounded" `Quick
      test_retire_cursor_bounded;
    qtest prop_iheap_layout_identity;
    Alcotest.test_case "Iheap id errors" `Quick test_iheap_errors;
    Alcotest.test_case "pending aggregates pin to zero" `Quick test_pending_zero_pin;
  ]
