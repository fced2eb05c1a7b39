(** Global string interning.

    The expansion pipeline compares and hashes the same identifier
    spellings over and over: every token lookup, every typedef test,
    every macro-table probe, every symbol-table bind re-hashes the name
    from scratch, and every [lex_ident] allocates a fresh copy of a name
    the session has usually seen thousands of times before.

    An interned symbol ({!t}) fixes both costs:

    - each distinct spelling is allocated exactly once per process
      ({!canon} returns the canonical copy, so [==] implies spelling
      equality for canonicalized strings);
    - the symbol records its hash, so hashtables keyed by symbols
      ({!Tbl}) never re-hash the characters, and equality is one pointer
      comparison.

    {b Cost.}  The table is open hashing over a power-of-two bucket
    array.  Inserting a new spelling conses it onto its bucket in place;
    a new array is allocated and rehashed only when the load passes 3/4,
    so interning is amortised O(1) per new symbol and lexing [n]
    distinct identifiers is O(n).  Generated C easily has tens of
    thousands of distinct names, so nothing here may be O(symbols) per
    insert.

    {b Domain safety (OCaml 5).}  The lexer probes this table once per
    identifier token, from every domain at once under
    [--jobs-mode=domains] and [serve --workers N], so the read path
    takes no lock: it loads the current table with one [Atomic.get] and
    scans one bucket.  Writers serialise on [write_lock].  The argument:

    - A bucket slot is written only under the lock, and only by storing
      a list whose head is the new symbol and whose tail is the slot's
      previous list.  A lock-free reader racing that store reads either
      the old list or the new one.  The OCaml 5 memory model makes a
      racy read return a value some write actually stored, and a block
      reachable through it is fully initialised; both lists are
      immutable.  So the reader scans a well-formed list of genuine
      symbols and can only get a {e false miss} (the spelling was being
      added right then), never a wrong hit.
    - A false miss falls through to the locked slow path, which re-reads
      the current table under the lock.  The mutex orders it after every
      earlier insert, so the re-check sees the symbol if any domain
      interned it, and two domains racing on one spelling agree on one
      symbol: the physical-equality contract holds.
    - Growing builds and fills the new array privately, then publishes
      it with [Atomic.set].  Inserts after that go to the new array only,
      so the old one is never written again.  A reader still holding
      the pre-grow array can miss only symbols added after the grow, and
      such a miss is again a false miss.
    - [uid]s are assigned under the lock from the symbol count, so they
      stay dense ([0 .. interned () - 1]) and follow allocation order.

    The table is global and append-only: symbols are never collected.
    That is the right trade for a compiler-shaped process — the set of
    distinct identifiers is bounded by the source actually seen — but it
    means [intern] must not be fed attacker-controlled unbounded data
    outside a compilation session.  {!interned} and {!bytes} measure its
    growth. *)

type t = {
  str : string;  (** the canonical spelling (unique per contents) *)
  hash : int;  (** [Hashtbl.hash str], computed once *)
  uid : int;  (** dense allocation order, for cheap total ordering *)
}

(* One generation of the table.  Slots of [buckets] are written only
   under [write_lock] (see the domain-safety argument above); the array
   itself is replaced only on grow. *)
type table = {
  buckets : t list array;
  mask : int;  (** [Array.length buckets - 1]; length is a power of two *)
}

let state : table Atomic.t =
  Atomic.make { buckets = Array.make 1024 []; mask = 1023 }

let write_lock = Mutex.create ()

(* Written under [write_lock] only; atomic so that {!interned} and
   {!bytes} can read them without it. *)
let size = Atomic.make 0
let total_bytes = Atomic.make 0

let find_in (tbl : table) (s : string) (h : int) : t option =
  let rec scan = function
    | [] -> None
    | sym :: rest ->
        if sym.hash = h && String.equal sym.str s then Some sym
        else scan rest
  in
  scan tbl.buckets.(h land tbl.mask)

let add (buckets : t list array) (mask : int) (sym : t) : unit =
  let slot = sym.hash land mask in
  buckets.(slot) <- sym :: buckets.(slot)

(* Under [write_lock]: a twice-as-large copy of [tbl], not yet published. *)
let grow (tbl : table) : table =
  let len = Array.length tbl.buckets * 2 in
  let buckets = Array.make len [] and mask = len - 1 in
  Array.iter (List.iter (add buckets mask)) tbl.buckets;
  { buckets; mask }

(* Under [write_lock], after [s] missed in [tbl], the current table. *)
let insert (tbl : table) (s : string) (h : int) : t =
  let n = Atomic.get size in
  let sym = { str = s; hash = h; uid = n } in
  if n + 1 > Array.length tbl.buckets * 3 / 4 then begin
    let next = grow tbl in
    add next.buckets next.mask sym;
    Atomic.set state next
  end
  else add tbl.buckets tbl.mask sym;
  Atomic.set total_bytes (Atomic.get total_bytes + String.length s);
  Atomic.set size (n + 1);
  sym

let intern (s : string) : t =
  let h = Hashtbl.hash s in
  match find_in (Atomic.get state) s h with
  | Some sym -> sym
  | None ->
      Mutex.protect write_lock (fun () ->
          (* Re-check against the current table: the miss above may be
             a false one, or another domain may have interned [s]
             between our read and the lock. *)
          let tbl = Atomic.get state in
          match find_in tbl s h with
          | Some sym -> sym
          | None -> insert tbl s h)

(** The canonical copy of [s]: spelling-equal strings map to one shared
    allocation, so later [String.equal]s on canonical strings hit their
    physical-equality fast path. *)
let canon (s : string) : string = (intern s).str

let str (sym : t) : string = sym.str

(* Sound because {!intern} never creates two symbols with one spelling. *)
let equal (a : t) (b : t) : bool = a == b
let hash (sym : t) : int = sym.hash
let compare (a : t) (b : t) : int = Int.compare a.uid b.uid

(** Number of distinct spellings interned so far (process-wide). *)
let interned () : int = Atomic.get size

(** Total length in bytes of those spellings. *)
let bytes () : int = Atomic.get total_bytes

(** Hashtables keyed by interned symbols: hashing reads the cached
    field, equality is physical. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
