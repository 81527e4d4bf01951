(* In-memory spans for the traced run, written out once the run ends so
   that writing never lands inside a timed region. A span's parent is
   the span open when it started; instants are zero-length spans. *)

type span = {
  id : int;
  parent : int; (* 0: top level *)
  name : string;
  start : float;
  mutable stop : float;
  mutable attrs : (string * float) list;
}

type t = { mutable spans : span list; mutable next : int; mutable stack : span list }

let create () = { spans = []; next = 1; stack = [] }

let parent t = match t.stack with s :: _ -> s.id | [] -> 0

let open_ t name =
  let s = { id = t.next; parent = parent t; name; start = Clock.now (); stop = nan; attrs = [] } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  s

let close t s attrs =
  s.stop <- Clock.now ();
  s.attrs <- attrs;
  match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Trace.close: span is not the innermost open one"

let instant t name attrs =
  let now = Clock.now () in
  let s = { id = t.next; parent = parent t; name; start = now; stop = now; attrs } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      let attrs =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf ", \"%s\": %s" k (Json.num v)) s.attrs)
      in
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"name\": \"%s\", \"start_s\": %s, \"dur_s\": %s%s}\n" s.id
        s.parent s.name (Json.num s.start)
        (Json.num (s.stop -. s.start))
        attrs)
    (List.rev t.spans);
  close_out oc
