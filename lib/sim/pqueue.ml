type 'a entry = { key : float; tag : int; payload : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }
let is_empty t = t.len = 0
let size t = t.len

let less a b = a.key < b.key || (a.key = b.key && a.tag < b.tag)

let grow t entry =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let ndata = Array.make ncap entry in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

let push t ~key ~tag payload =
  let entry = { key; tag; payload } in
  grow t entry;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.data.(!i) t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(!i) in
    t.data.(!i) <- t.data.(parent);
    t.data.(parent) <- tmp;
    i := parent
  done

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
    if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      i := !smallest
    end
  done

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t
    end;
    Some (top.key, top.tag, top.payload)
  end

let peek t = if t.len = 0 then None else Some (t.data.(0).key, t.data.(0).tag, t.data.(0).payload)

let clear t =
  t.data <- [||];
  t.len <- 0

(* ------------------------------------------------------------------ *)
(* Flat event queue: the allocation-free counterpart of the polymorphic
   heap above.  Keys, tags and payloads live in parallel unboxed arrays;
   [pop] writes the minimum into cursor fields instead of returning an
   option, so the driver's steady state never touches the minor heap.
   The order is exactly the boxed heap's: [(key, tag)] lexicographic with
   primitive float/int comparisons (so [-0. = 0.], as everywhere else in
   the simulator).  Keys must be finite and tags unique while queued. *)

module Events = struct
  module Key = struct
    (* Tags order same-time completions by insertion sequence.  Arrivals
       never enter the queue (the flat core reads them from a
       release-ordered cursor), so a tag is the sequence number itself.
       Payloads pack a completion's (machine, epoch) pair into one int. *)
    let max_seq = (1 lsl 40) - 1
    let machine_bits = 20
    let max_machine = (1 lsl machine_bits) - 1
    let max_epoch = (1 lsl (62 - machine_bits)) - 1

    let finish_tag ~seq =
      if seq < 0 || seq > max_seq then
        invalid_arg (Printf.sprintf "Pqueue.Events.Key: sequence %d out of range" seq);
      seq

    let finish_payload ~machine ~epoch =
      if machine < 0 || machine > max_machine then
        invalid_arg (Printf.sprintf "Pqueue.Events.Key: machine %d out of range" machine);
      if epoch < 0 || epoch > max_epoch then
        invalid_arg (Printf.sprintf "Pqueue.Events.Key: epoch %d out of range" epoch);
      (epoch lsl machine_bits) lor machine

    let machine_of ~payload = payload land max_machine
    let epoch_of ~payload = payload lsr machine_bits

    (* The total order realized by the queue, exposed for the property
       tests: keys first ([-0.] and [0.] compare equal, mirroring the
       float [<] the heaps use), unique tags second.  Finite keys only. *)
    let compare k1 t1 k2 t2 =
      if k1 < k2 then -1 else if k2 < k1 then 1 else Int.compare t1 t2
  end

  type t = {
    mutable ekey : float array;
    mutable etag : int array;
    mutable epay : int array;
    mutable elen : int;
    cur_key : float array;
        (* One-element scratch cell: a [mutable float] field of this mixed
           record would be boxed and re-allocated on every pop; a float
           array stores it unboxed. *)
    mutable cur_tag : int;
    mutable cur_pay : int;
  }

  let create () =
    {
      ekey = [||];
      etag = [||];
      epay = [||];
      elen = 0;
      cur_key = Array.make 1 0.;
      cur_tag = 0;
      cur_pay = 0;
    }

  let size t = t.elen
  let is_empty t = t.elen = 0

  let eless t i j =
    t.ekey.(i) < t.ekey.(j) || (t.ekey.(i) = t.ekey.(j) && t.etag.(i) < t.etag.(j))

  let swap t i j =
    let k = t.ekey.(i) and g = t.etag.(i) and p = t.epay.(i) in
    t.ekey.(i) <- t.ekey.(j);
    t.etag.(i) <- t.etag.(j);
    t.epay.(i) <- t.epay.(j);
    t.ekey.(j) <- k;
    t.etag.(j) <- g;
    t.epay.(j) <- p

  let grow t =
    let cap = Array.length t.ekey in
    if t.elen = cap then begin
      let ncap = max 16 (2 * cap) in
      let nkey = Array.make ncap 0. and ntag = Array.make ncap 0 and npay = Array.make ncap 0 in
      Array.blit t.ekey 0 nkey 0 t.elen;
      Array.blit t.etag 0 ntag 0 t.elen;
      Array.blit t.epay 0 npay 0 t.elen;
      t.ekey <- nkey;
      t.etag <- ntag;
      t.epay <- npay
    end

  let push t ~key ~tag ~payload =
    grow t;
    let i = ref t.elen in
    t.ekey.(!i) <- key;
    t.etag.(!i) <- tag;
    t.epay.(!i) <- payload;
    t.elen <- t.elen + 1;
    while !i > 0 && eless t !i ((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      swap t !i parent;
      i := parent
    done

  let pop t =
    if t.elen = 0 then false
    else begin
      t.cur_key.(0) <- t.ekey.(0);
      t.cur_tag <- t.etag.(0);
      t.cur_pay <- t.epay.(0);
      t.elen <- t.elen - 1;
      if t.elen > 0 then begin
        t.ekey.(0) <- t.ekey.(t.elen);
        t.etag.(0) <- t.etag.(t.elen);
        t.epay.(0) <- t.epay.(t.elen);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.elen && eless t l !smallest then smallest := l;
          if r < t.elen && eless t r !smallest then smallest := r;
          if !smallest = !i then continue := false
          else begin
            swap t !i !smallest;
            i := !smallest
          end
        done
      end;
      true
    end

  let key t = t.cur_key.(0)
  let tag t = t.cur_tag
  let payload t = t.cur_pay

  (* Bounded pop for the session driver's [drain_until]: refuse to pop
     past the horizon.  The comparison reads the root key straight out of
     the unboxed key array, so the per-event cost over [pop] is one float
     compare — the horizon itself is boxed once per drain call by the
     caller, never per event. *)
  let pop_before t ~limit = if t.elen = 0 || t.ekey.(0) > limit then false else pop t

  (* Non-destructive root read, for the flat core's merged pop: it
     compares the heap's head against the arrival cursor's before popping
     either.  Meaningless on an empty queue (the caller checks
     [is_empty]) and allocation-free — the float is already stored
     unboxed in the key array. *)
  let peek_key t = t.ekey.(0)
end

(* ------------------------------------------------------------------ *)

module Indexed = struct
  type ('k, 'v) entry = { ikey : 'k; id : int; value : 'v }

  type ('k, 'v) t = {
    icmp : 'k -> 'k -> int;
    mutable idata : ('k, 'v) entry array;
    mutable ilen : int;
    mutable pos : int array;  (* id -> heap slot, -1 when absent *)
  }

  let create ~cmp () = { icmp = cmp; idata = [||]; ilen = 0; pos = [||] }
  let size t = t.ilen
  let is_empty t = t.ilen = 0
  let mem t ~id = id >= 0 && id < Array.length t.pos && t.pos.(id) >= 0

  (* Ids are unique, so breaking key ties on the id keeps the order total:
     the heap's answers never depend on the history of inserts/removals. *)
  let less t a b =
    let c = t.icmp a.ikey b.ikey in
    if c <> 0 then c < 0 else a.id < b.id

  let set t slot entry =
    t.idata.(slot) <- entry;
    t.pos.(entry.id) <- slot

  let rec sift_up t slot =
    if slot > 0 then begin
      let parent = (slot - 1) / 2 in
      if less t t.idata.(slot) t.idata.(parent) then begin
        let a = t.idata.(slot) and b = t.idata.(parent) in
        set t slot b;
        set t parent a;
        sift_up t parent
      end
    end

  let rec sift_down t slot =
    let l = (2 * slot) + 1 and r = (2 * slot) + 2 in
    let smallest = ref slot in
    if l < t.ilen && less t t.idata.(l) t.idata.(!smallest) then smallest := l;
    if r < t.ilen && less t t.idata.(r) t.idata.(!smallest) then smallest := r;
    if !smallest <> slot then begin
      let a = t.idata.(slot) and b = t.idata.(!smallest) in
      set t slot b;
      set t !smallest a;
      sift_down t !smallest
    end

  let ensure_pos t id =
    let len = Array.length t.pos in
    if id >= len then begin
      let nlen = max 16 (max (id + 1) (2 * len)) in
      let npos = Array.make nlen (-1) in
      Array.blit t.pos 0 npos 0 len;
      t.pos <- npos
    end

  let add t ~id ~key value =
    if id < 0 then invalid_arg "Pqueue.Indexed.add: negative id";
    ensure_pos t id;
    if t.pos.(id) >= 0 then
      invalid_arg (Printf.sprintf "Pqueue.Indexed.add: id %d already present" id);
    let entry = { ikey = key; id; value } in
    let cap = Array.length t.idata in
    if t.ilen = cap then begin
      let ndata = Array.make (max 16 (2 * cap)) entry in
      Array.blit t.idata 0 ndata 0 t.ilen;
      t.idata <- ndata
    end;
    t.idata.(t.ilen) <- entry;
    t.pos.(id) <- t.ilen;
    t.ilen <- t.ilen + 1;
    sift_up t (t.ilen - 1)

  let remove t ~id =
    if not (mem t ~id) then None
    else begin
      let slot = t.pos.(id) in
      let removed = t.idata.(slot) in
      t.pos.(id) <- -1;
      t.ilen <- t.ilen - 1;
      if slot < t.ilen then begin
        set t slot t.idata.(t.ilen);
        (* The moved entry may violate the invariant in either direction;
           exactly one of the two sifts does work. *)
        sift_up t slot;
        sift_down t slot
      end;
      Some (removed.ikey, removed.value)
    end

  let min_elt t =
    if t.ilen = 0 then None
    else
      let e = t.idata.(0) in
      Some (e.id, e.ikey, e.value)

  let pop_min t =
    match min_elt t with
    | None -> None
    | Some (id, _, _) as top ->
        ignore (remove t ~id);
        top

  let iter t ~f =
    for slot = 0 to t.ilen - 1 do
      let e = t.idata.(slot) in
      f e.id e.ikey e.value
    done

  let fold t ~init ~f =
    let acc = ref init in
    for slot = 0 to t.ilen - 1 do
      let e = t.idata.(slot) in
      acc := f !acc e.id e.ikey e.value
    done;
    !acc

  let to_list t = List.rev (fold t ~init:[] ~f:(fun acc id k v -> (id, k, v) :: acc))

  let clear t =
    t.idata <- [||];
    t.ilen <- 0;
    t.pos <- [||]

  let invariant t =
    let ok = ref (t.ilen >= 0 && t.ilen <= Array.length t.idata) in
    for slot = 1 to t.ilen - 1 do
      let parent = (slot - 1) / 2 in
      if less t t.idata.(slot) t.idata.(parent) then ok := false
    done;
    for slot = 0 to t.ilen - 1 do
      let e = t.idata.(slot) in
      if e.id < 0 || e.id >= Array.length t.pos || t.pos.(e.id) <> slot then ok := false
    done;
    let registered = ref 0 in
    Array.iter (fun p -> if p >= 0 then incr registered) t.pos;
    if !registered <> t.ilen then ok := false;
    !ok
end

(* ------------------------------------------------------------------ *)

module Iheap = struct
  (* The elements ARE the ids, so nothing is boxed: the heap and position
     tables are plain [int array]s and every operation is allocation-free
     once they have grown to size.

     The algorithm is a line-for-line clone of [Indexed]'s (append +
     sift-up on add; move-last + sift-up + sift-down on remove).  That is
     deliberate, not incidental: [Driver.pending_into] exposes heap-array
     order to policies, and some of them fold floats over it, so the flat
     core must reproduce [Indexed]'s slot layout exactly — same algorithm,
     same operation history, same strict order — for schedules to stay
     byte-identical. *)

  type t = {
    mutable hless : int -> int -> bool;  (* strict total order over ids *)
    mutable hdata : int array;
    mutable hlen : int;
    mutable hpos : int array;  (* id -> heap slot, -1 when absent *)
  }

  let create ~less () = { hless = less; hdata = [||]; hlen = 0; hpos = [||] }

  (* Re-bless the order after the arrays a comparator closed over have
     been reallocated (the flat state's streaming column growth).  The
     caller guarantees [less] realizes the same order over the ids
     currently present, so the heap shape stays valid as-is; swapping the
     closure only redirects future comparisons to the live arrays.  Cold:
     runs once per capacity doubling, never per event. *)
  let set_less t ~less = t.hless <- less
  let size t = t.hlen
  let is_empty t = t.hlen = 0
  let mem t ~id = id >= 0 && id < Array.length t.hpos && t.hpos.(id) >= 0

  let set t slot id =
    t.hdata.(slot) <- id;
    t.hpos.(id) <- slot

  let rec sift_up t slot =
    if slot > 0 then begin
      let parent = (slot - 1) / 2 in
      if t.hless t.hdata.(slot) t.hdata.(parent) then begin
        let a = t.hdata.(slot) and b = t.hdata.(parent) in
        set t slot b;
        set t parent a;
        sift_up t parent
      end
    end

  let rec sift_down t slot =
    let l = (2 * slot) + 1 and r = (2 * slot) + 2 in
    let smallest = ref slot in
    if l < t.hlen && t.hless t.hdata.(l) t.hdata.(!smallest) then smallest := l;
    if r < t.hlen && t.hless t.hdata.(r) t.hdata.(!smallest) then smallest := r;
    if !smallest <> slot then begin
      let a = t.hdata.(slot) and b = t.hdata.(!smallest) in
      set t slot b;
      set t !smallest a;
      sift_down t !smallest
    end

  let ensure_pos t id =
    let len = Array.length t.hpos in
    if id >= len then begin
      let nlen = max 16 (max (id + 1) (2 * len)) in
      let npos = Array.make nlen (-1) in
      Array.blit t.hpos 0 npos 0 len;
      t.hpos <- npos
    end

  let add t ~id =
    if id < 0 then invalid_arg "Pqueue.Iheap.add: negative id";
    ensure_pos t id;
    if t.hpos.(id) >= 0 then
      invalid_arg (Printf.sprintf "Pqueue.Iheap.add: id %d already present" id);
    let cap = Array.length t.hdata in
    if t.hlen = cap then begin
      let ndata = Array.make (max 16 (2 * cap)) (-1) in
      Array.blit t.hdata 0 ndata 0 t.hlen;
      t.hdata <- ndata
    end;
    t.hdata.(t.hlen) <- id;
    t.hpos.(id) <- t.hlen;
    t.hlen <- t.hlen + 1;
    sift_up t (t.hlen - 1)

  let remove t ~id =
    if not (mem t ~id) then false
    else begin
      let slot = t.hpos.(id) in
      t.hpos.(id) <- -1;
      t.hlen <- t.hlen - 1;
      if slot < t.hlen then begin
        set t slot t.hdata.(t.hlen);
        (* The moved element may violate the invariant in either direction;
           exactly one of the two sifts does work. *)
        sift_up t slot;
        sift_down t slot
      end;
      true
    end

  let min_id t = if t.hlen = 0 then -1 else t.hdata.(0)
  let get t slot = t.hdata.(slot)

  let iter t ~f =
    for slot = 0 to t.hlen - 1 do
      f t.hdata.(slot)
    done

  let clear t =
    t.hdata <- [||];
    t.hlen <- 0;
    t.hpos <- [||]

  let invariant t =
    let ok = ref (t.hlen >= 0 && t.hlen <= Array.length t.hdata) in
    for slot = 1 to t.hlen - 1 do
      let parent = (slot - 1) / 2 in
      if t.hless t.hdata.(slot) t.hdata.(parent) then ok := false
    done;
    for slot = 0 to t.hlen - 1 do
      let id = t.hdata.(slot) in
      if id < 0 || id >= Array.length t.hpos || t.hpos.(id) <> slot then ok := false
    done;
    let registered = ref 0 in
    Array.iter (fun p -> if p >= 0 then incr registered) t.hpos;
    if !registered <> t.hlen then ok := false;
    !ok
end
