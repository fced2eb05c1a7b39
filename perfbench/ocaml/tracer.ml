(* The traced run: replays a workload's generated inputs in-process
   through the public entry points the CLI and the daemon call, timing
   each call into a layer and reading the spans the library already
   records inside the engine.  Prints one JSON object of per-layer
   metrics.

   usage:
     tracer.exe batch TU OUT RECORD
       State.of_string -> Parser.parse_program -> Engine.expand_program
       -> Pretty.program_to_string on TU, as [ms2c expand] runs an
       uncached file; OUT receives the rendered C.  With RECORD 0, TU
       then goes through [Api.Session] for the cache and session
       costs.
     tracer.exe lex FILE
       lexer time of FILE against empty macro tables.
     tracer.exe serve DEFS WARM REQS OUT RECORD
       the daemon's work through [Api.Session]: DEFS loaded as the
       daemon loads --prelude-file, then every WARM unit and every REQS
       unit expanded from the session's base state.  OUT receives the
       outputs of REQS.
     tracer.exe oracle DEFS UNITS OUT
       the reference outputs serve responses are checked against: each
       UNITS unit expanded by [Api.expand_string] on a fresh engine,
       with DEFS in front of it.  Prints nothing.

   WARM, REQS, UNITS and the OUT of serve and oracle are in frame
   format.
   RECORD is 0 (timed calls only) or 1 (also record spans).  A layer's
   self time is its time minus the time of the layers it calls; the
   layers split out of a call by spans are pattern match, meta
   evaluation and template fill (and, inside Session.expand, lexing,
   parsing, the expand walk, the cache and the transaction layer). *)

open Common
module Api = Ms2.Api
module Engine = Ms2.Engine
module Cache = Ms2.Cache
module State = Ms2_parser.State
module Parser = Ms2_parser.Parser
module Pretty = Ms2_syntax.Pretty
module Intern = Ms2_support.Intern
module Value = Ms2_meta.Value

let render prog = Pretty.program_to_string ~mode:Pretty.strict prog
let us s = s *. 1e6
let mib words = float words *. 8. /. 1048576.

(* The engine's cache-key flags string (engine.ml [cache_flags]). *)
let cache_flags (e : Engine.t) =
  Printf.sprintf "hyg=%b prov=%b rec=%b cp=%b txn=%b"
    e.Engine.env.Value.hygienic e.Engine.provenance e.Engine.recover
    e.Engine.compile_patterns e.Engine.transactional

let cache_key (e : Engine.t) ~source text =
  Cache.key ~defs_version:e.Engine.defs_version ~env:e.Engine.env
    ~tenv:e.Engine.tenv ~senv:e.Engine.senv ~limits:e.Engine.limits
    ~flags:(cache_flags e) ~source text

(* Mean cost of interning a string never seen before, after the
   workload has filled the table. *)
let intern_insert_us () =
  let probes = List.init 1000 (Printf.sprintf "perfbench-probe-%d") in
  let (), dt = timed (fun () -> List.iter (fun s -> ignore (Intern.intern s)) probes) in
  us dt /. 1000.

let put_gc (g0 : Gc.stat) (g1 : Gc.stat) =
  put "gc.minor_mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  put "gc.major_collections"
    (float (g1.Gc.major_collections - g0.Gc.major_collections));
  put "gc.heap_mib" (mib g1.Gc.top_heap_words)

(* Size of the engine's expansion cache. *)
let put_store (e : Engine.t) =
  match e.Engine.cache with
  | Some store ->
      let _, _, _, entries, bytes = Api.shared_cache_stats store in
      put "cache.entries" (float entries);
      put "cache.used_mib" (float bytes /. 1048576.)
  | None -> failwith "the engine has no expansion cache"

(* Median wall time of [n] calls of [f], in microseconds. *)
let median_us n f = us (median (List.init n (fun _ -> snd (timed f))))

(* Rollbacks alternate between [base] and the engine's current state. *)
let put_session_costs e base =
  let top = Api.checkpoint e in
  let rb c = snd (timed (fun () -> Api.rollback e c)) in
  let rbs = List.concat (List.init 11 (fun _ -> [ rb base; rb top ])) in
  put "session.rollback_us" (us (median rbs));
  put "session.checkpoint_us" (median_us 21 (fun () -> ignore (Api.checkpoint e)));
  put "session.fingerprint_us" (median_us 21 (fun () -> ignore (Engine.fingerprint e)))

(* [Session.reset] then a timed [Session.expand] of [text]: the output,
   whether the cache replayed any of it, and the time. *)
let session_expand s text =
  Api.Session.reset s;
  match timed (fun () -> Api.Session.expand s ~source:"<request>" text) with
  | Ok (c, d), dt -> (c, d.Api.Session.d_cache_hits > 0, dt)
  | Error (diag, _), _ -> failwith (Ms2_support.Diag.to_string diag)

(* The whole file through Api.Session on a new engine, as a build
   server would expand it: the first expand misses and stores, the
   later ones, each after a reset, replay from the cache.  The default
   budget's per-shard slice (4 MiB) cannot hold this file's entry, so
   the engine gets a budget that can.  The session calls are then
   timed on the state the file left. *)
let batch_session text expected =
  let e = Api.create_engine ~cache_bytes:(1 lsl 30) () in
  let base = Api.checkpoint e in
  let s = Api.Session.create e ~id:"perfbench" in
  let expand want_hit =
    let c, hit, dt = session_expand s text in
    if c <> expected then failwith "session output differs from the pipeline's";
    if hit <> want_hit then failwith "unexpected cache outcome";
    dt
  in
  let miss = expand false in
  let hits = List.init 3 (fun _ -> expand true) in
  put "cache.miss_us" (us miss);
  put "cache.hit_us" (us (median hits));
  put_store e;
  put_session_costs e base

let put_stats (s0 : Api.stats) (s1 : Api.stats) =
  put "meta.fuel" (float (s1.Api.fuel_consumed - s0.Api.fuel_consumed));
  put "fill.nodes" (float (s1.Api.nodes_produced - s0.Api.nodes_produced));
  put "engine.invocations"
    (float (s1.Api.invocations_expanded - s0.Api.invocations_expanded))

(* Span categories whose self time is split out of the timed call
   that contains them. *)
let split_cats = [ "pattern"; "meta"; "fill" ]

let split_self t = List.fold_left (fun a c -> a +. self_s t c) 0. split_cats

let batch path out record =
  let text = read_file path in
  let e = Api.create_engine () in
  let s0 = Api.stats e in
  let g0 = Gc.quick_stat () in
  let call f =
    let t = new_totals () in
    let r, dt = recorded ~record t f in
    (r, dt, t)
  in
  let key_s =
    median (List.init 5 (fun _ -> snd (timed (fun () -> cache_key e ~source:path text))))
  in
  let st, lex_s, lex_t =
    call (fun () ->
        State.of_string ~macros:e.Engine.macros ~tenv:e.Engine.tenv
          ~compiled:e.Engine.compiled ~watchdog:e.Engine.watchdog
          ~source:path text)
  in
  st.State.compile_patterns <- e.Engine.compile_patterns;
  let prog, parse_s, parse_t = call (fun () -> Parser.parse_program st) in
  let prog, exp_s, exp_t = call (fun () -> Engine.expand_program e prog) in
  let c, pretty_s, pretty_t = call (fun () -> render prog) in
  let g1 = Gc.quick_stat () in
  Out_channel.with_open_bin out (fun oc -> output_string oc c);
  let wall = lex_s +. parse_s +. exp_s +. pretty_s in
  let all = [ lex_t; parse_t; exp_t; pretty_t ] in
  let sum f = List.fold_left (fun a t -> a +. f t) 0. all in
  let lexer = lex_s -. split_self lex_t in
  let parser = parse_s -. split_self parse_t in
  let walk = exp_s -. split_self exp_t in
  let pretty = pretty_s -. split_self pretty_t in
  let pattern = sum (fun t -> self_s t "pattern") in
  let meta = sum (fun t -> self_s t "meta") in
  let fill = sum (fun t -> self_s t "fill") in
  put "wall_s" wall;
  put "lexer.self_s" lexer;
  put "lexer.tokens_per_s" (float (Array.length st.State.toks) /. lex_s);
  put "parser.self_s" parser;
  put "engine.walk_self_s" walk;
  put "pretty.self_s" pretty;
  put "pretty.bytes_per_s" (float (String.length c) /. pretty_s);
  put "cache.key_us" (us key_s);
  put_stats s0 (Api.stats e);
  put_gc g0 g1;
  put "intern.symbols" (float (Intern.interned ()));
  put "intern.insert_us" (intern_insert_us ());
  if not record then batch_session text c;
  if record then begin
    put "pattern.self_s" pattern;
    put "pattern.matches"
      (float (List.fold_left (fun a t -> a + span_count t "pattern") 0 all));
    put "meta.self_s" meta;
    put "fill.self_s" fill;
    (* the walk is a residual: expand_program minus its child spans,
       so it holds whatever the engine does that no span names *)
    put "trace.coverage"
      ((lexer +. parser +. pattern +. meta +. fill +. pretty) /. wall)
  end

let lex path =
  let text = read_file path in
  let st, dt = timed (fun () -> State.of_string ~source:path text) in
  put "lex_s" dt;
  put "tokens" (float (Array.length st.State.toks))

let load_defs path =
  let e = Api.create_engine () in
  ignore (Engine.expand_source e ~source:path (read_file path));
  e

(* Time [expand] over the warm-up units, then over the request units;
   engine counters and GC move are taken over both passes, and so are
   the span totals of the traced run. *)
let stream e warm reqs expand =
  let s0 = Api.stats e and g0 = Gc.quick_stat () in
  let pass units = timed (fun () -> Array.to_list (Array.map expand units)) in
  let _, warm_s = pass warm in
  let outs, reqs_s = pass reqs in
  put "wall_s" (warm_s +. reqs_s);
  put "reqs_s" reqs_s;
  put_stats s0 (Api.stats e);
  put_gc g0 (Gc.quick_stat ());
  outs

(* RECORD=0: the daemon's work through Api.Session: per unit a reset,
   then an expand.  After the stream the warm-up units are expanded
   once more, so every workload has both cache hits and misses. *)
let serve_session e warm reqs =
  let s = Api.Session.create e ~id:"perfbench" in
  let miss = ref [] and hit = ref [] in
  let expand text =
    let c, h, dt = session_expand s text in
    if h then hit := dt :: !hit else miss := dt :: !miss;
    c
  in
  let outs = stream e warm reqs expand in
  Array.iter (fun u -> ignore (expand u)) warm;
  (* the key each request's lookup computed: same text, same base state *)
  Api.Session.reset s;
  let key =
    Array.map (fun u -> snd (timed (fun () -> cache_key e ~source:"<request>" u))) reqs
  in
  put "cache.key_us" (us (median (Array.to_list key)));
  put "cache.hit_us" (us (median !hit));
  put "cache.miss_us" (us (median !miss));
  put_store e;
  put "intern.symbols" (float (Intern.interned ()));
  put "intern.insert_us" (intern_insert_us ());
  outs

(* RECORD=1: the same engine calls Session.reset + Session.expand make,
   one timed call each: rollback (reset), rollback (enter the session),
   expand_source with span recording on, render, checkpoint and
   fingerprint (commit). *)
let serve_layers e warm reqs =
  let base = Api.checkpoint e in
  let t = new_totals () in
  let rbs = ref [] and cps = ref [] and fps = ref [] in
  let pretty = ref 0. and bytes = ref 0 and lexed = ref [] in
  let expand text =
    let (), rb1 = timed (fun () -> Api.rollback e base) in
    let (), rb2 = timed (fun () -> Api.rollback e base) in
    let lexes = span_count t "lex" in
    let prog, _ =
      recorded ~record:true t (fun () ->
          Engine.expand_source e ~source:"<request>" text)
    in
    if span_count t "lex" > lexes then lexed := text :: !lexed;
    let c, pr = timed (fun () -> render prog) in
    let _, cp = timed (fun () -> Api.checkpoint e) in
    let _, fp = timed (fun () -> Engine.fingerprint e) in
    pretty := !pretty +. pr;
    bytes := !bytes + String.length c;
    rbs := rb1 :: rb2 :: !rbs;
    cps := cp :: !cps;
    fps := fp :: !fps;
    c
  in
  let outs = stream e warm reqs expand in
  (* the tokens of every text the cache did not answer, lexed again
     against the base state's macro tables, untimed *)
  Api.rollback e base;
  let tokens =
    List.fold_left
      (fun a text ->
        let st =
          State.of_string ~macros:e.Engine.macros ~tenv:e.Engine.tenv
            ~source:"<request>" text
        in
        a + Array.length st.State.toks)
      0 !lexed
  in
  let self = self_s t in
  let sum l = List.fold_left ( +. ) 0. l in
  put "lexer.self_s" (self "lex");
  put "lexer.tokens_per_s" (float tokens /. self "lex");
  put "parser.self_s" (self "parse");
  put "pattern.self_s" (self "pattern");
  put "pattern.matches" (float (span_count t "pattern"));
  put "meta.self_s" (self "meta");
  put "fill.self_s" (self "fill");
  put "engine.walk_self_s" (self "expand");
  put "pretty.self_s" !pretty;
  put "pretty.bytes_per_s" (float !bytes /. !pretty);
  put "session.rollback_us" (us (median !rbs));
  put "session.checkpoint_us" (us (median !cps));
  put "session.fingerprint_us" (us (median !fps));
  (* residuals, not counted as covered: the expand walk (expand-walk
     minus its child spans) and expand_source outside every span (the
     cache key, counters) *)
  let explained =
    List.fold_left (fun a c -> a +. self c) 0.
      [ "lex"; "parse"; "pattern"; "meta"; "fill"; "cache"; "txn" ]
    +. !pretty +. sum !rbs +. sum !cps +. sum !fps
  in
  put "trace.coverage" (explained /. List.assoc "wall_s" !metrics);
  outs

let serve defs warm reqs out record =
  let e = load_defs defs in
  let outs = (if record then serve_layers else serve_session) e warm reqs in
  write_frames out outs

let oracle defs units out =
  let defs = read_file defs in
  read_frames units |> Array.to_list
  |> List.map (fun u ->
         match Api.expand_string ~engine:(Api.create_engine ()) (defs ^ u) with
         | Ok c -> c
         | Error msg -> failwith ("oracle: expansion failed: " ^ msg))
  |> write_frames out

let () =
  (match Array.to_list Sys.argv |> List.tl with
  | [ "oracle"; defs; units; out ] ->
      oracle defs units out;
      exit 0
  | [ "batch"; tu; out; r ] -> batch tu out (r = "1")
  | [ "lex"; file ] -> lex file
  | [ "serve"; defs; warm; reqs; out; r ] ->
      serve defs (read_frames warm) (read_frames reqs) out (r = "1")
  | _ ->
      prerr_endline "usage: tracer.exe batch|lex|serve|oracle ARGS (see tracer.ml)";
      exit 2);
  print_metrics ()
