package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** The closure's edge collect through an exchange into one partition, the
  * reference [[ConnectedComponents.collectEdges]] is checked against.
  */
object ReferenceConnectedComponents {

  /** The endpoints of at most `cap` edges, in the exchange's arrival order.
    * Each task keeps at most `cap + 1` edges, `repartition(1)` gathers them,
    * and that partition keeps `cap + 1` again.
    *
    * @throws IllegalArgumentException on more than `cap` edges, or on an
    *         edge with a null endpoint, naming its index in arrival order
    */
  def collectEdges(edges: DataFrame, cap: Int): (Array[Long], Array[Long]) = {
    val ends = edges.select(col("src").cast("long"), col("dst").cast("long"))
    val rows = ends.rdd.mapPartitions(_.take(cap + 1)).repartition(1).mapPartitions(_.take(cap + 1)).collect()
    if (rows.length > cap)
      throw new IllegalArgumentException(
        s"closure over ${ends.count()} edges exceeds the driver cap of $cap edges")
    val src = new Array[Long](rows.length)
    val dst = new Array[Long](rows.length)
    var k = 0
    while (k < rows.length) {
      val r = rows(k)
      if (r.isNullAt(0) || r.isNullAt(1))
        throw new IllegalArgumentException(s"edge $k has a null endpoint: (${r.get(0)}, ${r.get(1)})")
      src(k) = r.getLong(0); dst(k) = r.getLong(1)
      k += 1
    }
    (src, dst)
  }
}
