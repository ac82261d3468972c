type schedule = Fifo | Lifo | Seeded_shuffle of int

let pp_schedule ppf = function
  | Fifo -> Fmt.string ppf "fifo"
  | Lifo -> Fmt.string ppf "lifo"
  | Seeded_shuffle seed -> Fmt.pf ppf "shuffle:%d" seed

(* Two structures hold the pending events.

   The timer heap is a binary min-heap over [(time, rank, seq)] stored as
   parallel arrays: times unboxed in a [Float.Array], ranks and insertion
   indices in [int array]s, values in a separate array. Sifting moves a
   hole instead of swapping, and nothing is allocated per event.

   The same-instant lane (only under [Fifo]) is a FIFO ring of values all
   due at [lane_time]. An event joins the lane when it is due at the
   lane's time, or, when the lane is empty, at the time of the last pop
   (a fiber resume, typically). Every heap entry due at [lane_time] was
   added before the lane's current run began, so it has a smaller
   insertion index than every lane entry: the pop rule "heap first on
   equal times" therefore reproduces the exact [(time, seq)] order of a
   single heap. The insertion counter advances for lane entries too, so
   later seqs and ranks are unchanged. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable ranks : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;  (* live heap entries, in slots [0, size) *)
  mutable seq : int;
  schedule : schedule;
  mutable lane : 'a array;  (* ring; length is zero or a power of two *)
  mutable lane_head : int;
  mutable lane_len : int;
  mutable lane_time : float;
  mutable last_pop : float;
}

(* The filler of vacated slots, so a popped value is never kept reachable
   by the queue. It is never read back as an ['a]. *)
let vacant () : 'a = Obj.magic () (* lint: allow obj-magic — filler, never read *)

let create ?(schedule = Fifo) () =
  {
    times = Float.Array.create 0;
    ranks = [||];
    seqs = [||];
    values = [||];
    size = 0;
    seq = 0;
    schedule;
    lane = [||];
    lane_head = 0;
    lane_len = 0;
    lane_time = nan;
    last_pop = nan;
  }

let is_empty t = t.size = 0 && t.lane_len = 0
let length t = t.size + t.lane_len

(* The tie-break key among same-timestamp entries. [Fifo] reproduces the
   historical (time, insertion) order bit for bit; the other policies only
   ever reorder entries that share a timestamp, because the heap compares
   times first. *)
let rank_of t seq =
  match t.schedule with
  | Fifo -> seq
  | Lifo -> -seq
  | Seeded_shuffle seed -> Rng.rank ~seed seq

(* Whether heap slot [i] orders strictly before the key [(time, rank, seq)]. *)
let slot_before t i time rank seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time
  || ti = time
     && (Array.unsafe_get t.ranks i < rank
        || (Array.unsafe_get t.ranks i = rank && Array.unsafe_get t.seqs i < seq))

(* Whether heap slot [i] orders strictly before heap slot [j]. Taking slot
   indices rather than a key keeps the float comparison unboxed. *)
let slots_before t i j =
  let ti = Float.Array.unsafe_get t.times i and tj = Float.Array.unsafe_get t.times j in
  ti < tj
  || ti = tj
     && (Array.unsafe_get t.ranks i < Array.unsafe_get t.ranks j
        || Array.unsafe_get t.ranks i = Array.unsafe_get t.ranks j
           && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.ranks dst (Array.unsafe_get t.ranks src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.values dst (Array.unsafe_get t.values src)

let grow_heap t =
  let capacity = Array.length t.values in
  let n = max 16 (2 * capacity) in
  let times = Float.Array.create n in
  Float.Array.blit t.times 0 times 0 t.size;
  let ranks = Array.make n 0 and seqs = Array.make n 0 and values = Array.make n (vacant ()) in
  Array.blit t.ranks 0 ranks 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.times <- times;
  t.ranks <- ranks;
  t.seqs <- seqs;
  t.values <- values

(* Sift up from a hole at the end; the new entry is written once, where
   the hole stops. *)
let heap_add t time rank seq value =
  if t.size = Array.length t.values then grow_heap t;
  let hole = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    if slot_before t parent time rank seq then rising := false
    else begin
      move t ~src:parent ~dst:!hole;
      hole := parent
    end
  done;
  Float.Array.unsafe_set t.times !hole time;
  Array.unsafe_set t.ranks !hole rank;
  Array.unsafe_set t.seqs !hole seq;
  Array.unsafe_set t.values !hole value

(* Remove the root and sift the hole it leaves down. The last entry is the
   key being placed; it stays in its slot until the hole stops, since every
   hole has a smaller index and no move writes that slot. *)
let heap_take t =
  let top = Array.unsafe_get t.values 0 in
  let last = t.size - 1 in
  t.size <- last;
  let hole = ref 0 and sinking = ref true in
  while !sinking do
    let left = (2 * !hole) + 1 in
    if left >= last then sinking := false
    else begin
      let right = left + 1 in
      let child = if right < last && slots_before t right left then right else left in
      if slots_before t child last then begin
        move t ~src:child ~dst:!hole;
        hole := child
      end
      else sinking := false
    end
  done;
  if !hole < last then move t ~src:last ~dst:!hole;
  Array.unsafe_set t.values last (vacant ());
  top

let lane_push t time value =
  let capacity = Array.length t.lane in
  if t.lane_len = capacity then begin
    let lane = Array.make (max 16 (2 * capacity)) (vacant ()) in
    for i = 0 to t.lane_len - 1 do
      lane.(i) <- t.lane.((t.lane_head + i) land (capacity - 1))
    done;
    t.lane <- lane;
    t.lane_head <- 0
  end;
  if t.lane_len = 0 then t.lane_time <- time;
  Array.unsafe_set t.lane ((t.lane_head + t.lane_len) land (Array.length t.lane - 1)) value;
  t.lane_len <- t.lane_len + 1

let lane_take t =
  let v = Array.unsafe_get t.lane t.lane_head in
  Array.unsafe_set t.lane t.lane_head (vacant ());
  t.lane_head <- (t.lane_head + 1) land (Array.length t.lane - 1);
  t.lane_len <- t.lane_len - 1;
  v

let add t ~time value =
  let seq = t.seq in
  t.seq <- seq + 1;
  match t.schedule with
  | Fifo when time = (if t.lane_len = 0 then t.last_pop else t.lane_time) ->
      lane_push t time value
  | _ -> heap_add t time (rank_of t seq) seq value

(* Heap first on equal times: see the ordering argument above. *)
let lane_first t =
  t.lane_len > 0 && (t.size = 0 || t.lane_time < Float.Array.unsafe_get t.times 0)

let next_time t =
  if lane_first t then t.lane_time
  else if t.size > 0 then Float.Array.unsafe_get t.times 0
  else invalid_arg "Event_queue.next_time: empty queue"

let take t =
  if lane_first t then begin
    t.last_pop <- t.lane_time;
    lane_take t
  end
  else if t.size > 0 then begin
    t.last_pop <- Float.Array.unsafe_get t.times 0;
    heap_take t
  end
  else invalid_arg "Event_queue.take: empty queue"

let due_by t time =
  (t.lane_len > 0 && t.lane_time <= time)
  || (t.size > 0 && Float.Array.unsafe_get t.times 0 <= time)

let skip t = t.seq <- t.seq + 1

let pop t =
  if is_empty t then None
  else
    let time = next_time t in
    Some (time, take t)

let peek_time t = if is_empty t then None else Some (next_time t)
