(* Shared helpers of the benchmark's in-process programs: the frame
   format run.py exchanges with them, timing, and span self times. *)

module Obs = Ms2_support.Obs

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Frames: a decimal byte length, a newline, then that many bytes.
   Generated units are arbitrary text, so no separator would be safe. *)
let read_frames path : string array =
  let s = read_file path in
  let rec go pos acc =
    if pos >= String.length s then Array.of_list (List.rev acc)
    else
      let nl = String.index_from s pos '\n' in
      let len = int_of_string (String.sub s pos (nl - pos)) in
      go (nl + 1 + len) (String.sub s (nl + 1) len :: acc)
  in
  go 0 []

let write_frames path (items : string list) =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun x ->
          Printf.fprintf oc "%d\n" (String.length x);
          output_string oc x)
        items)

(* Monotonic nanoseconds: per-call timings here reach the microsecond
   range, below what [Unix.gettimeofday] resolves. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [timed f] is [f ()] and its wall time in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median (xs : float list) =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Metrics accumulate here and print as one flat JSON object. *)
let metrics : (string * float) list ref = ref []
let put name v = metrics := (name, v) :: !metrics

let print_metrics () =
  let field (k, v) =
    Printf.sprintf "%S: %s" k
      (if Float.is_integer v && Float.abs v < 1e15 then
         Printf.sprintf "%.0f" v
       else Printf.sprintf "%.17g" v)
  in
  print_endline
    ("{" ^ String.concat ", " (List.rev_map field !metrics) ^ "}")

(* Self time of recorded spans, summed per category.  The recorder
   appends a span when it closes, so the spans on the pending stack
   that started at or after a closing span's start are exactly its
   children. *)
type span_totals = {
  self_us : (string, float) Hashtbl.t;  (** per category *)
  count : (string, int) Hashtbl.t;  (** spans per category *)
}

let new_totals () =
  { self_us = Hashtbl.create 8; count = Hashtbl.create 8 }

let add_spans (t : span_totals) (evs : Obs.event list) =
  let get tbl k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  let pending = ref [] in
  List.iter
    (fun (e : Obs.event) ->
      if e.Obs.ev_ph = 'X' then begin
        let rec take child_us = function
          | (c : Obs.event) :: rest when c.Obs.ev_ts_us >= e.Obs.ev_ts_us ->
              take (child_us +. c.Obs.ev_dur_us) rest
          | rest -> (child_us, rest)
        in
        let child_us, rest = take 0. !pending in
        pending := e :: rest;
        let cat = e.Obs.ev_cat in
        Hashtbl.replace t.self_us cat
          (get t.self_us cat 0. +. e.Obs.ev_dur_us -. child_us);
        Hashtbl.replace t.count cat (get t.count cat 0 + 1)
      end)
    evs

let self_s t cat =
  Option.value ~default:0. (Hashtbl.find_opt t.self_us cat) /. 1e6

let span_count t cat = Option.value ~default:0 (Hashtbl.find_opt t.count cat)

(* [recorded ~record totals f] runs [f] as one timed call and returns
   its result and wall time in seconds; with [record], the library's
   spans recorded inside the call are added to [totals]. *)
let recorded ~record (totals : span_totals) f =
  if record then Obs.start_recording ();
  Fun.protect
    ~finally:(fun () -> if record then add_spans totals (Obs.stop_recording ()))
    (fun () -> timed f)
