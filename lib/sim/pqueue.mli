(** Binary-heap priority queue keyed by [(float, int)].

    The integer tag breaks ties deterministically (insertion sequence or an
    event-kind rank), which the simulation relies on for reproducible event
    ordering at equal times. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> key:float -> tag:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Removes and returns the minimum element ([(key, tag, payload)]),
    comparing keys first and tags second. *)

val peek : 'a t -> (float * int * 'a) option

val clear : 'a t -> unit

(** Flat event queue: the allocation-free counterpart of the polymorphic
    heap above, ordered by the same [(key, tag)] lexicographic rule with
    primitive float/int comparisons ([-0.] equals [0.], as everywhere else
    in the simulator).  Keys, tags and payloads live in parallel unboxed
    arrays and [pop] deposits the minimum into cursor fields read back via
    {!Events.key}/{!Events.tag}/{!Events.payload}, so the driver's steady
    state never touches the minor heap.  Keys must be finite and tags
    unique while queued. *)
module Events : sig
  (** Int-encoded event keys.  A tag is the completion's insertion
      sequence, so at equal times completions pop in the order they were
      scheduled.  A completion payload packs [(machine, epoch)] into one
      int.  Encoders raise [Invalid_argument] out of range; within range,
      encode/decode is a bijection (property-tested). *)
  module Key : sig
    val max_seq : int
    (** Largest encodable sequence number, [2^40 - 1]. *)

    val max_machine : int
    (** Largest encodable machine id, [2^20 - 1]. *)

    val max_epoch : int
    (** Largest encodable epoch, [2^42 - 1]. *)

    val finish_tag : seq:int -> int
    (** The tag of the [seq]-th event: [seq] itself, range-checked. *)

    val finish_payload : machine:int -> epoch:int -> int
    val machine_of : payload:int -> int
    val epoch_of : payload:int -> int

    val compare : float -> int -> float -> int -> int
    (** [compare k1 t1 k2 t2] is the total order the queue realizes over
        [(key, tag)] pairs with finite keys and unique tags: keys first
        (primitive float comparison), tags second ([Int.compare]).
        Exposed for the total-order property tests. *)
  end

  type t

  val create : unit -> t
  val size : t -> int
  val is_empty : t -> bool
  val push : t -> key:float -> tag:int -> payload:int -> unit

  val pop : t -> bool
  (** Removes the minimum, depositing it in the cursor; [false] when
      empty.  Allocation-free. *)

  val pop_before : t -> limit:float -> bool
  (** {!pop}, but refuses to pop an event whose key exceeds [limit]:
      [false] when the queue is empty {e or} its minimum key is
      [> limit] (the cursor is untouched in both refusal cases).
      [pop_before t ~limit:infinity] behaves exactly like [pop t] for
      the finite keys the queue admits.  Allocation-free per call given
      the caller boxes [limit] once per drain, not per event. *)

  val key : t -> float
  (** Key of the most recently popped event.  Meaningless before the
      first successful {!pop}. *)

  val tag : t -> int
  val payload : t -> int

  val peek_key : t -> float
  (** Key of the current minimum, without removing it.  Meaningless when
      the queue is empty (check {!is_empty} first); allocation-free. *)
end

(** Indexed min-heap: a binary heap that additionally tracks the heap slot
    of every element by a caller-supplied non-negative integer id (job ids
    in the simulator), giving O(log n) removal of {e arbitrary} elements —
    the operation mid-run rejection needs — on top of the usual O(log n)
    insert/extract-min.

    The comparison is supplied at creation time; key ties are broken by the
    id, so the heap realizes a {e total} order and its answers are
    independent of the insertion/removal history.  Ids must be unique while
    present; the position table grows to the largest id seen (dense ids,
    as job ids are, cost O(max id) words). *)
module Indexed : sig
  type ('k, 'v) t

  val create : cmp:('k -> 'k -> int) -> unit -> ('k, 'v) t
  val size : ('k, 'v) t -> int
  val is_empty : ('k, 'v) t -> bool
  val mem : ('k, 'v) t -> id:int -> bool

  val add : ('k, 'v) t -> id:int -> key:'k -> 'v -> unit
  (** Raises [Invalid_argument] if [id] is negative or already present. *)

  val remove : ('k, 'v) t -> id:int -> ('k * 'v) option
  (** Removes the element with the given id in O(log n); [None] when
      absent. *)

  val min_elt : ('k, 'v) t -> (int * 'k * 'v) option
  (** Smallest element under [(cmp, id)], without removing it. *)

  val pop_min : ('k, 'v) t -> (int * 'k * 'v) option

  val iter : ('k, 'v) t -> f:(int -> 'k -> 'v -> unit) -> unit
  (** Iterates in heap-array order: deterministic for a given operation
      history, but {e not} sorted. *)

  val fold : ('k, 'v) t -> init:'a -> f:('a -> int -> 'k -> 'v -> 'a) -> 'a
  val to_list : ('k, 'v) t -> (int * 'k * 'v) list
  val clear : ('k, 'v) t -> unit

  val invariant : ('k, 'v) t -> bool
  (** Structural check (heap property + position-table consistency), for
      tests. *)
end

(** Flat indexed min-heap over bare ids: {!Indexed} with the boxing
    stripped out.  The elements {e are} the ids, held in plain
    [int array]s, so add/remove/min are allocation-free once the arrays
    have grown.  The strict order is a closure over whatever flat state
    the caller keys on (it must be total over the ids present — break
    ties on the id itself).

    The algorithm is a line-for-line clone of {!Indexed}'s.  That is
    load-bearing: [Driver.pending_into] exposes heap-array order to
    policies, some of which fold floats over it, so the flat core must
    reproduce {!Indexed}'s slot layout exactly for schedules to stay
    byte-identical. *)
module Iheap : sig
  type t

  val create : less:(int -> int -> bool) -> unit -> t

  val set_less : t -> less:(int -> int -> bool) -> unit
  (** Replaces the strict order's closure without touching the heap
      shape — the re-bless hook for streaming column growth, where the
      arrays a comparator captured are reallocated wholesale.  [less]
      must realize the {e same} total order over the ids currently
      present, or the heap invariant silently breaks. *)

  val size : t -> int
  val is_empty : t -> bool
  val mem : t -> id:int -> bool

  val add : t -> id:int -> unit
  (** Raises [Invalid_argument] if [id] is negative or already present. *)

  val remove : t -> id:int -> bool
  (** Removes the element with the given id in O(log n); [false] when
      absent. *)

  val min_id : t -> int
  (** Smallest id under [less], or [-1] when empty. *)

  val get : t -> int -> int
  (** [get t slot] is the id in heap-array slot [slot] (< {!size}). *)

  val iter : t -> f:(int -> unit) -> unit
  (** Iterates in heap-array order, exactly as {!Indexed.iter} does. *)

  val clear : t -> unit

  val invariant : t -> bool
  (** Structural check (heap property + position-table consistency), for
      tests. *)
end
