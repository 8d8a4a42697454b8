open Sched_model
open Sched_sim

type config = { eps : float; rule1 : bool; rule2 : bool }

let config ?(rule1 = true) ?(rule2 = true) ~eps () =
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Flow_reject_weighted.config: eps must be in (0,1)";
  { eps; rule1; rule2 }

type state = {
  cfg : config;
  mutable v : float array;  (** Weight accumulated against the running job. *)
  c : float array;  (** Weight accumulated per machine since last reset. *)
  mutable rej1 : int;
  mutable rej2 : int;
  (* Dispatch scratch, reused by every arrival so the argmin allocates
     nothing: the pending set of the machine being priced, the float
     cells below, and the argmin. *)
  mutable buf : Job.t array;
  f : float array;
  mutable best_i : int;
}

(* Slots of [state.f] (a [mutable float] field would box on every write). *)
let f_before = 0 (* sum of p_il over the pending jobs that precede j *)
let f_after_w = 1 (* sum of w_l over the pending jobs after j *)
let f_cost = 2 (* cost of the machine just priced *)
let f_best = 3 (* smallest cost so far *)

(* Highest density first; ties by release then id.  Sizes are field reads
   of the job's row, so no float crosses a call. *)
let precede i (a : Job.t) (b : Job.t) =
  let da = a.weight /. a.Job.sizes.(i) and db = b.weight /. b.Job.sizes.(i) in
  if da <> db then da > db
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

(* Largest processing time among pending plus the just-dispatched job (for
   Rule 2w's victim): [p_ij] descending, ties by larger id — exactly the
   order of the driver's [pending_longest_tie_id] index. *)
let largest_pending view i (j_new : Job.t) =
  let bigger (a : Job.t) (b : Job.t) =
    let pa = Job.size a i and pb = Job.size b i in
    if pa <> pb then pa > pb else a.id > b.id
  in
  match Driver.pending_longest_tie_id view i with
  | None -> j_new
  | Some w -> if bigger w j_new then w else j_new

(* Cold: the scratch buffer grows only when a queue outgrows every queue
   seen before; [j] is just the fill value. *)
let grow_buf st (j : Job.t) k = st.buf <- Array.make (max 16 (2 * k)) j

(* The weighted lambda_ij over the buffered pending set; writes the cost
   to [f_cost]. *)
let[@rejlint.hot] lambda_ij st view i (j : Job.t) =
  let eps = st.cfg.eps in
  let pij = j.Job.sizes.(i) in
  if Driver.pending_count view i > Array.length st.buf then
    (grow_buf st j (Driver.pending_count view i) [@rejlint.cold]);
  let k = Driver.pending_into view i st.buf in
  let f = st.f in
  f.(f_before) <- 0.;
  f.(f_after_w) <- 0.;
  for s = 0 to k - 1 do
    let l = st.buf.(s) in
    if precede i l j then f.(f_before) <- f.(f_before) +. l.Job.sizes.(i)
    else f.(f_after_w) <- f.(f_after_w) +. l.weight
  done;
  f.(f_cost) <- (j.weight *. ((pij /. eps) +. f.(f_before) +. pij)) +. (f.(f_after_w) *. pij)

(* Argmin over eligible machines in ascending order; a later machine
   replaces the best only when [not (best <= cost)], so ties go to the
   smallest machine id.  Leaves the machine in [best_i]. *)
let[@rejlint.hot] argmin_lambda st view (j : Job.t) =
  let f = st.f in
  st.best_i <- -1;
  for i = 0 to Array.length j.Job.sizes - 1 do
    if Float.is_finite j.Job.sizes.(i) then begin
      lambda_ij st view i j;
      if st.best_i < 0 || not (f.(f_best) <= f.(f_cost)) then begin
        st.best_i <- i;
        f.(f_best) <- f.(f_cost)
      end
    end
  done;
  assert (st.best_i >= 0)

let init cfg instance =
  {
    cfg;
    v = Array.make (Instance.n instance) 0.;
    c = Array.make (Instance.m instance) 0.;
    rej1 = 0;
    rej2 = 0;
    buf = [||];
    f = Array.make 4 0.;
    best_i = -1;
  }

(* Streaming sessions init with zero jobs; the per-job counters grow on
   first sight of a larger id (batch runs pre-size to n). *)
let ensure st id =
  let len = Array.length st.v in
  if id >= len then begin
    let cap = max 16 (max (id + 1) (2 * len)) in
    let nv = Array.make cap 0. in
    Array.blit st.v 0 nv 0 len;
    st.v <- nv
  end

(* The sequential tail of [on_arrival] given the argmin machine, kept
   apart from the argmin so a dispatch kernel can reuse the split. *)
let commit st view (j : Job.t) ~target =
  ensure st j.id;
  let eps = st.cfg.eps in
  st.c.(target) <- st.c.(target) +. j.weight;
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = r.Driver.job in
      st.v.(k.Job.id) <- st.v.(k.Job.id) +. j.weight;
      if st.cfg.rule1 && st.v.(k.Job.id) > k.Job.weight /. eps then begin
        rejections := k.Job.id :: !rejections;
        st.rej1 <- st.rej1 + 1
      end
  | None -> ());
  if st.cfg.rule2 then begin
    let victim = largest_pending view target j in
    if st.c.(target) >= (1. +. (1. /. eps)) *. victim.Job.weight then begin
      rejections := victim.Job.id :: !rejections;
      st.c.(target) <- 0.;
      st.rej2 <- st.rej2 + 1
    end
  end;
  { Driver.dispatch_to = target; reject = List.rev !rejections; restart = [] }

let on_arrival st view (j : Job.t) =
  argmin_lambda st view j;
  commit st view j ~target:st.best_i

let select st view i =
  match Driver.pending_densest view i with
  | None -> None
  | Some head ->
      st.v.(head.Job.id) <- 0.;
      Some { Driver.job = head.Job.id; speed = 1.0 }

let policy cfg = { Driver.name = "flow-reject-weighted"; init = init cfg; on_arrival; select }

let rejections st = (st.rej1, st.rej2)

let run ?trace cfg instance = Driver.run ?trace (policy cfg) instance
