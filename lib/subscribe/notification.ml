(* A change notification: what a subscriber receives when its subscription's
   underlying XML trigger fires.

   The wire form is NDJSON — one JSON object per line — because every sink
   speaks it: the file sink appends lines, the HTTP front door sends them
   as SSE [data:] lines, an in-process callback can parse or ignore them.  Rendering is lazy: the
   hot path (trigger firing -> enqueue) only captures the XML nodes; the
   string is produced when a sink first needs it, so notifications that are
   coalesced away or dropped by an overflow policy are never rendered. *)

type t = {
  subscription : string;
  seq : int;  (* per-subscription, assigned at enqueue, statement order *)
  stmt_id : int;  (* DML statement the firing derives from *)
  event : string;  (* INSERT / UPDATE / DELETE (XML-level event) *)
  trigger : string;  (* underlying XML trigger name *)
  old_xml : Xmlkit.Xml.t option;  (* OLD_NODE (absent for INSERT) *)
  new_xml : Xmlkit.Xml.t option;  (* NEW_NODE (absent for DELETE) *)
  ndjson : string Lazy.t;
}

(* Coalescing key: the monitored element's tag plus its attributes.  In
   key-tagged views (the trigger-specifiable views of Theorem 1) the node
   key surfaces as attributes of the monitored element — e.g. the catalog
   view's product@name — so two firings for the same view node coalesce
   while firings for different nodes never do.  Text content is excluded on
   purpose: it is exactly what changes between the versions we coalesce. *)
let node_key n =
  match n with
  | Xmlkit.Xml.Element { tag; attrs; _ } ->
    tag
    ^ String.concat ""
        (List.map
           (fun (k, v) -> "\x00" ^ k ^ "\x01" ^ v)
           (List.sort compare attrs))
  | Xmlkit.Xml.Text s -> "\x02" ^ s

let key t =
  t.subscription
  ^ "\x00"
  ^
  match t.new_xml, t.old_xml with
  | Some n, _ | None, Some n -> node_key n
  | None, None -> string_of_int t.seq  (* nothing to coalesce on: unique *)

let json_of t =
  let esc = Obs.Metrics.json_escape in
  let node = function
    | Some n -> "\"" ^ esc (Xmlkit.Xml.to_string ~canonical:true n) ^ "\""
    | None -> "null"
  in
  Printf.sprintf
    "{\"subscription\": \"%s\", \"seq\": %d, \"stmt\": %d, \"event\": \
     \"%s\", \"trigger\": \"%s\", \"old\": %s, \"new\": %s}"
    (esc t.subscription) t.seq t.stmt_id (esc t.event) (esc t.trigger)
    (node t.old_xml) (node t.new_xml)

let make ~subscription ~seq ~stmt_id ~event ~trigger ~old_xml ~new_xml =
  let rec n =
    { subscription; seq; stmt_id; event; trigger; old_xml; new_xml;
      ndjson = lazy (json_of n);
    }
  in
  n

(* The NDJSON line (no trailing newline), rendered on first use. *)
let to_ndjson t = Lazy.force t.ndjson
