open Sched_model
open Sched_sim

type config = { eps : float; gamma : float option }

let config ?gamma ~eps () =
  if not (eps > 0. && eps < 1.) then
    invalid_arg "Flow_energy_reject.config: eps must be in (0,1)";
  (match gamma with
  | Some g when g <= 0. -> invalid_arg "Flow_energy_reject.config: gamma must be positive"
  | _ -> ());
  { eps; gamma }

type state = {
  cfg : config;
  instance : Instance.t;
  gammas : float array;  (** Speed constant per machine. *)
  mutable v : float array;  (** Weight counters of running jobs, by job id. *)
  mutable lambda : float array;
  mutable rej : int;
  (* Dispatch scratch, reused by every arrival so the argmin allocates
     nothing: the pending-plus-j set of the machine being priced and the
     merge sort's second buffer, the float cells below, and the argmin. *)
  mutable buf : Job.t array;
  mutable tmp : Job.t array;
  f : float array;
  mutable best_i : int;
}

(* Slots of [state.f] (a [mutable float] field would box on every write). *)
let f_prefix = 0 (* W_l: prefix weight through the current job; W_j once j is passed *)
let f_upto = 1 (* sum_{l <= j} p_il / (gamma W_l^(1/alpha)) *)
let f_after_w = 2 (* sum_{l > j} w_l *)
let f_cost = 3 (* cost of the machine just priced *)
let f_best = 4 (* smallest cost so far: lambda_ij at the argmin once a scan ends *)

(* Density order: higher w/p first, ties by earlier release then id.  A
   strict total order (ids are unique), so any correct sort of a set
   yields the one sequence.  Sizes are field reads of the job's row, so no
   float crosses a call. *)
let precede i (a : Job.t) (b : Job.t) =
  let da = a.weight /. a.Job.sizes.(i) and db = b.weight /. b.Job.sizes.(i) in
  if da <> db then da > db
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

(* Cold: the scratch buffers grow only when a queue outgrows every queue
   seen before; [j] is just the fill value. *)
let grow_buf st (j : Job.t) k =
  st.buf <- Array.make (max 16 (2 * k)) j;
  st.tmp <- Array.make (max 16 (2 * k)) j

(* A bottom-up merge sort by [precede], allocation-free over the two
   scratch buffers.  [merge] joins the sorted runs [src.(a..mid-1)] and
   [src.(b..hi-1)] into [dst] from slot [d]; [merge_pass] merges every
   adjacent pair of [width]-runs of [src.(0..k-1)]; [sort_runs] doubles
   the width until one run is left and returns the buffer holding it. *)
let[@rejlint.hot] rec merge i (src : Job.t array) (dst : Job.t array) a mid b hi d =
  if a < mid && (b >= hi || precede i src.(a) src.(b)) then begin
    dst.(d) <- src.(a);
    merge i src dst (a + 1) mid b hi (d + 1)
  end
  else if b < hi then begin
    dst.(d) <- src.(b);
    merge i src dst a mid (b + 1) hi (d + 1)
  end

let[@rejlint.hot] rec merge_pass i src dst width lo k =
  if lo < k then begin
    let mid = Int.min k (lo + width) and hi = Int.min k (lo + (2 * width)) in
    merge i src dst lo mid mid hi lo;
    merge_pass i src dst width hi k
  end

let[@rejlint.hot] rec sort_runs i src dst width k =
  if width >= k then src
  else begin
    merge_pass i src dst width 0 k;
    sort_runs i dst src (2 * width) k
  end

let[@rejlint.hot] rec slot_of (seq : Job.t array) id s =
  if seq.(s).Job.id = id then s else slot_of seq id (s + 1)

(* lambda_ij over the density-sorted pending-plus-j sequence, using prefix
   weights W_l (inclusive of l).  [precede] is a strict total order, so
   the sorted sequence — and with it every prefix sum — is the one any
   correct sort gives, a list sort included.  Writes the cost to
   [f_cost]. *)
let[@rejlint.hot] lambda_ij st view i (j : Job.t) =
  let alpha = (Instance.machine st.instance i).Machine.alpha in
  let gamma = st.gammas.(i) in
  let eps = st.cfg.eps in
  if Driver.pending_count view i >= Array.length st.buf then
    (grow_buf st j (Driver.pending_count view i + 1) [@rejlint.cold]);
  let k = Driver.pending_into view i st.buf in
  st.buf.(k) <- j;
  let buf = sort_runs i st.buf st.tmp 1 (k + 1) in
  let pos_j = slot_of buf j.Job.id 0 in
  let f = st.f in
  f.(f_prefix) <- 0.;
  f.(f_upto) <- 0.;
  f.(f_after_w) <- 0.;
  for s = 0 to pos_j do
    let l = buf.(s) in
    f.(f_prefix) <- f.(f_prefix) +. l.weight;
    f.(f_upto) <- f.(f_upto) +. (l.Job.sizes.(i) /. (gamma *. (f.(f_prefix) ** (1. /. alpha))))
  done;
  for s = pos_j + 1 to k do
    f.(f_after_w) <- f.(f_after_w) +. buf.(s).weight
  done;
  let pij = j.Job.sizes.(i) in
  f.(f_cost) <-
    (j.weight *. ((pij /. eps) +. f.(f_upto)))
    +. (f.(f_after_w) *. pij /. (gamma *. (f.(f_prefix) ** (1. /. alpha))))

(* Argmin over eligible machines in ascending order; a later machine
   replaces the best only when [not (best <= cost)], so ties go to the
   smallest machine id.  Leaves the machine in [best_i] and its lambda in
   [f_best]. *)
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
  let n = Instance.n instance in
  let gammas =
    Array.map
      (fun (mc : Machine.t) ->
        match cfg.gamma with
        | Some g -> g
        | None -> Bounds.gamma_best ~eps:cfg.eps ~alpha:mc.Machine.alpha)
      (Array.init (Instance.m instance) (Instance.machine instance))
  in
  {
    cfg;
    instance;
    gammas;
    v = Array.make n 0.;
    lambda = Array.make n 0.;
    rej = 0;
    buf = [||];
    tmp = [||];
    f = Array.make 5 0.;
    best_i = -1;
  }

(* Streaming sessions init with zero jobs; the per-job columns grow on
   first sight of a larger id (batch runs pre-size to n). *)
let ensure st id =
  let len = Array.length st.v in
  if id >= len then begin
    let cap = max 16 (max (id + 1) (2 * len)) in
    let nv = Array.make cap 0. in
    Array.blit st.v 0 nv 0 len;
    st.v <- nv;
    let nl = Array.make cap 0. in
    Array.blit st.lambda 0 nl 0 len;
    st.lambda <- nl
  end

(* The sequential tail of [on_arrival]: fix the dual variable from the
   argmin's [f_best] and apply the weighted Rule 1. *)
let commit st view (j : Job.t) ~target =
  ensure st j.id;
  st.lambda.(j.id) <- st.cfg.eps /. (1. +. st.cfg.eps) *. st.f.(f_best);
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = r.Driver.job in
      st.v.(k.Job.id) <- st.v.(k.Job.id) +. j.weight;
      if st.v.(k.Job.id) > k.Job.weight /. st.cfg.eps then begin
        rejections := [ k.Job.id ];
        st.rej <- st.rej + 1
      end
  | None -> ());
  { Driver.dispatch_to = target; reject = !rejections; restart = [] }

let on_arrival st view (j : Job.t) =
  argmin_lambda st view j;
  commit st view j ~target:st.best_i

let select st view i =
  match Driver.pending_densest view i with
  | None -> None
  | Some head ->
      let alpha = (Instance.machine st.instance i).Machine.alpha in
      let total_weight = Driver.pending_weight view i in
      let speed = st.gammas.(i) *. (total_weight ** (1. /. alpha)) in
      st.v.(head.Job.id) <- 0.;
      Some { Driver.job = head.Job.id; speed }

let policy cfg = { Driver.name = "flow-energy-reject"; init = init cfg; on_arrival; select }

let lambdas st = Array.copy st.lambda
let rejections st = st.rej
let gamma_of_machine st i = st.gammas.(i)

let run ?trace cfg instance = Driver.run ?trace (policy cfg) instance
