open Sched_model

type event =
  | Dispatch of { job : Job.id; machine : Machine.id }
  | Start of { job : Job.id; machine : Machine.id; speed : float }
  | Complete of { job : Job.id; machine : Machine.id }
  | Reject of { job : Job.id; machine : Machine.id; was_running : bool; remaining : float }
  | Restart of { job : Job.id; machine : Machine.id; wasted : float }

type entry = { time : Time.t; event : event }

(* The log is kept as parallel columns, not as a list of entries: an
   entry costs five unboxed words instead of a cons, a record and a boxed
   event, and a long-lived session's log holds no young pointers for the
   minor collector to copy — recording adds to the minor heap only the
   event value the caller built, which dies at once.  Entries are rebuilt
   on the way out ([events], [since]).  [kind] codes the constructor (a
   running-state [Reject] gets its own code, so [was_running] needs no
   column); [value] holds [speed], [remaining] or [wasted], [0.] when the
   event carries no float. *)
type t = {
  mutable len : int;
  mutable time : float array;
  mutable kind : int array;
  mutable job : int array;
  mutable machine : int array;
  mutable value : float array;
}

let k_dispatch = 0
let k_start = 1
let k_complete = 2
let k_reject_pending = 3
let k_reject_running = 4
let k_restart = 5

let create () =
  { len = 0; time = [||]; kind = [||]; job = [||]; machine = [||]; value = [||] }

let grow t =
  let cap = Array.length t.kind in
  let ncap = max 64 (2 * cap) in
  let grow_f a = let b = Array.make ncap 0. in Array.blit a 0 b 0 t.len; b in
  let grow_i a = let b = Array.make ncap 0 in Array.blit a 0 b 0 t.len; b in
  t.time <- grow_f t.time;
  t.kind <- grow_i t.kind;
  t.job <- grow_i t.job;
  t.machine <- grow_i t.machine;
  t.value <- grow_f t.value

let put t ~kind ~job ~machine ~time ~value =
  if t.len = Array.length t.kind then grow t;
  let k = t.len in
  t.time.(k) <- time;
  t.kind.(k) <- kind;
  t.job.(k) <- job;
  t.machine.(k) <- machine;
  t.value.(k) <- value;
  t.len <- k + 1

let record t time event =
  match event with
  | Dispatch { job; machine } -> put t ~kind:k_dispatch ~job ~machine ~time ~value:0.
  | Start { job; machine; speed } -> put t ~kind:k_start ~job ~machine ~time ~value:speed
  | Complete { job; machine } -> put t ~kind:k_complete ~job ~machine ~time ~value:0.
  | Reject { job; machine; was_running; remaining } ->
      let kind = if was_running then k_reject_running else k_reject_pending in
      put t ~kind ~job ~machine ~time ~value:remaining
  | Restart { job; machine; wasted } -> put t ~kind:k_restart ~job ~machine ~time ~value:wasted

let entry t k =
  let job = t.job.(k) and machine = t.machine.(k) and v = t.value.(k) in
  let kind = t.kind.(k) in
  let event =
    if kind = k_dispatch then Dispatch { job; machine }
    else if kind = k_start then Start { job; machine; speed = v }
    else if kind = k_complete then Complete { job; machine }
    else if kind = k_restart then Restart { job; machine; wasted = v }
    else Reject { job; machine; was_running = kind = k_reject_running; remaining = v }
  in
  { time = t.time.(k); event }

(* Entries [k .. len-1], oldest first, built back to front. *)
let rec suffix t k r acc = if r < k then acc else suffix t k (r - 1) (entry t r :: acc)

let events t = suffix t 0 (t.len - 1) []
let length t = t.len

(* Entries recorded after the first [k]: the serve loop's per-batch
   emission cursor.  O(length - k): only the fresh entries are rebuilt. *)
let since t k = suffix t (max k 0) (t.len - 1) []

(* Shared step-function builder: [delta] maps an event to [Some (machine, +-1)]
   when it moves the tracked population, [None] otherwise. *)
let profile t ~machines ~delta =
  let profiles = Array.make machines [] in
  let counts = Array.make machines 0 in
  List.iter
    (fun { time; event } ->
      match delta event with
      | None -> ()
      | Some (i, d) ->
          counts.(i) <- counts.(i) + d;
          profiles.(i) <- (time, counts.(i)) :: profiles.(i))
    (events t);
  List.init machines (fun i -> (i, List.rev profiles.(i)))

let queue_profile t ~machines =
  profile t ~machines ~delta:(function
    | Dispatch { machine; _ } -> Some (machine, 1)
    | Complete { machine; _ } -> Some (machine, -1)
    | Reject { machine; _ } -> Some (machine, -1)
    | Start _ | Restart _ -> None)

let pending_profile t ~machines =
  profile t ~machines ~delta:(function
    | Dispatch { machine; _ } -> Some (machine, 1)
    | Start { machine; _ } -> Some (machine, -1)
    | Restart { machine; _ } -> Some (machine, 1)
    | Reject { machine; was_running = false; _ } -> Some (machine, -1)
    | Reject { was_running = true; _ } | Complete _ -> None)

let pp_entry ppf { time; event } =
  match event with
  | Dispatch { job; machine } -> Format.fprintf ppf "%a dispatch j%d -> m%d" Time.pp time job machine
  | Start { job; machine; speed } ->
      Format.fprintf ppf "%a start j%d on m%d speed=%g" Time.pp time job machine speed
  | Complete { job; machine } -> Format.fprintf ppf "%a complete j%d on m%d" Time.pp time job machine
  | Reject { job; machine; was_running; remaining } ->
      Format.fprintf ppf "%a reject j%d on m%d%s rem=%g" Time.pp time job machine
        (if was_running then " (running)" else "")
        remaining
  | Restart { job; machine; wasted } ->
      Format.fprintf ppf "%a restart j%d on m%d wasted=%g" Time.pp time job machine wasted
