(** Minimal SVG document builder.

    The paper's pipeline ends in visualization code that turns the
    Process-step CSVs into graphs; this module is the drawing substrate
    for {!Charts}.  Only the primitives the charts need are exposed.
    Coordinates are in pixels with the origin at the top-left, as in
    SVG itself. *)

type t

val create : width:float -> height:float -> t

val rect : t -> x:float -> y:float -> w:float -> h:float -> ?fill:string -> unit -> unit

val line :
  t -> x1:float -> y1:float -> x2:float -> y2:float -> ?stroke:string ->
  ?width:float -> unit -> unit

val polyline : t -> (float * float) list -> ?stroke:string -> unit -> unit

val circle : t -> cx:float -> cy:float -> r:float -> unit

val text :
  t -> x:float -> y:float -> ?size:float -> ?anchor:[ `Start | `Middle | `End ] ->
  ?rotate:float -> string -> unit

val to_string : t -> string
(** A complete standalone SVG document. *)

val write : t -> string -> unit

val palette : int -> string
(** A categorical colour for series [i] (cycles after 8). *)
