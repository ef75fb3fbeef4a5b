package repro.graph

import scala.collection.mutable.ArrayBuilder

import org.apache.spark.SparkException
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.unionfind.UnionFind

/** Connected components over an undirected edge list — the transitive
  * closure step Frost applies to turn a set of matches into an experiment
  * clustering (Frost, Section 1.2 / 4.2.4).
  *
  * Match edge sets are small next to records and candidates (about 11.5k
  * admitted edges against 337k candidates on Z2), so the closure runs on
  * the driver: the edges are collected, their endpoint IDs relabelled to a
  * dense range, and unioned with [[repro.unionfind.UnionFind]]. The
  * records are labelled in Spark by a narrow projection over a broadcast of
  * the component minima, so the closure adds no shuffle to a plan that
  * reads it.
  */
object ConnectedComponents {

  /** Most edges one closure collects to the driver. A collected edge costs
    * 16 bytes there, and the driver holds at most about `2 * maxEdges + 1`
    * of them at once (the edges kept so far and one task's packed edges),
    * so the cap bounds that at about 160 MB; a larger match set fails after
    * each task has packed at most `maxEdges + 1` of its edges.
    */
  val maxEdges: Int = 5000000

  /** Full clustering of `records` under the transitive closure of `edges`:
    * records touched by an edge get their component's minimum ID, all other
    * records are singletons labelled by their own ID, and a null ID gets a
    * null cluster. Self-loops and duplicate edges are harmless; IDs need not
    * be dense.
    *
    * The sorted endpoint IDs and their minima are broadcast once; each
    * record's label is one binary search there, in a projection of
    * `records`, so the result has the partitioning of `records` and no
    * exchange.
    *
    * @param records DataFrame with a unique long `id` column
    * @param edges   DataFrame with long columns `src`, `dst` (unordered pairs)
    * @return DataFrame (id: Long, cluster: Long)
    * @throws IllegalArgumentException if an edge has a null endpoint or
    *         there are more than [[maxEdges]] edges
    */
  def closure(records: DataFrame, edges: DataFrame): DataFrame = {
    val (src, dst) = collectEdges(edges, maxEdges)
    val (ids, minima) = components(src, dst)
    val shared = records.sparkSession.sparkContext.broadcast((ids, minima))
    // A primitive parameter makes Spark return null for a null ID unasked.
    val label = udf { (id: Long) =>
      val (ids, minima) = shared.value
      val i = java.util.Arrays.binarySearch(ids, id)
      if (i >= 0) minima(i) else id
    }
    records.select(col("id"), label(col("id")).as("cluster"))
  }

  /** The endpoints of at most `cap` edges, in partition order, failing
    * loudly on more than `cap` edges or on a null endpoint (naming the
    * edge's index in partition order).
    *
    * One Spark job of one stage: each task packs at most `cap + 1` of its
    * edges into two arrays and notes its first edge with a null endpoint.
    * The driver keeps the tasks' arrays only while their running total is
    * at most `cap`, so it never holds more than `cap` edges besides the one
    * task result it is reading. Task results so large together that Spark
    * aborts the job at `spark.driver.maxResultSize` fail with the cap
    * message too when there are more than `cap` edges.
    * (`limit(cap + 1).collect()` scans the partitions in growing jobs
    * instead, and an exchange into one partition would add a stage.)
    */
  private[repro] def collectEdges(edges: DataFrame, cap: Int): (Array[Long], Array[Long]) = {
    val ends = edges.select(col("src").cast("long"), col("dst").cast("long"))
    def tooMany = new IllegalArgumentException(
      s"closure over ${ends.count()} edges exceeds the driver cap of $cap edges")
    val rdd = ends.rdd
    val batches = new Array[EdgeBatch](rdd.getNumPartitions)
    var received = 0L
    try rdd.sparkContext.runJob(rdd, (rows: Iterator[Row]) => EdgeBatch.of(rows, cap), (p: Int, b: EdgeBatch) => {
      received += b.size
      if (received <= cap) batches(p) = b else batches.mapInPlace(_ => null)
    })
    catch {
      case e: SparkException if overResultSize(e) && ends.count() > cap => throw tooMany
    }
    if (received > cap) throw tooMany
    val src = new Array[Long](received.toInt)
    val dst = new Array[Long](received.toInt)
    var k = 0
    batches.foreach { b =>
      if (b.firstNull >= 0) throw new IllegalArgumentException(s"edge ${k + b.firstNull} has a null endpoint: ${b.nullEdge}")
      System.arraycopy(b.src, 0, src, k, b.size)
      System.arraycopy(b.dst, 0, dst, k, b.size)
      k += b.size
    }
    (src, dst)
  }

  /** Whether Spark aborted a job because its task results together passed
    * `spark.driver.maxResultSize`.
    */
  private def overResultSize(e: Throwable): Boolean =
    e != null && (String.valueOf(e.getMessage).contains("spark.driver.maxResultSize") || overResultSize(e.getCause))

  /** One task's edges, at most `cap + 1` of them in its order, and the
    * position of its first edge with a null endpoint (-1 if none) and how
    * that edge prints. A null endpoint is packed as 0.
    */
  private final class EdgeBatch(val src: Array[Long], val dst: Array[Long], val firstNull: Int, val nullEdge: String)
      extends Serializable {
    def size: Int = src.length
  }

  private object EdgeBatch {
    def of(rows: Iterator[Row], cap: Int): EdgeBatch = {
      val src = new ArrayBuilder.ofLong
      val dst = new ArrayBuilder.ofLong
      var firstNull = -1
      var nullEdge: String = null
      var k = 0
      while (k <= cap && rows.hasNext) {
        val r = rows.next()
        if (r.isNullAt(0) || r.isNullAt(1)) {
          if (firstNull < 0) { firstNull = k; nullEdge = s"(${r.get(0)}, ${r.get(1)})" }
          src += 0L; dst += 0L
        } else { src += r.getLong(0); dst += r.getLong(1) }
        k += 1
      }
      new EdgeBatch(src.result(), dst.result(), firstNull, nullEdge)
    }
  }

  /** Pairs in the edges' transitive closure, Σ C(|c|, 2) over their components. */
  private[repro] def closedPairCount(src: Array[Long], dst: Array[Long]): Long = unionAll(src, dst)._2.pairCount

  /** The distinct values of `ids`, ascending: one primitive sort of `ids`
    * in place, then one scan dropping the repeats (no boxing `distinct`).
    */
  private[repro] def sortedDistinct(ids: Array[Long]): Array[Long] = {
    java.util.Arrays.sort(ids)
    var distinct = 0
    var k = 0
    while (k < ids.length) {
      if (distinct == 0 || ids(k) != ids(distinct - 1)) { ids(distinct) = ids(k); distinct += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(ids, distinct)
  }

  /** `ids` sorted in place; fails with `repeated(id)` at the smallest repeated ID. */
  private[repro] def sortedUnique(ids: Array[Long])(repeated: Long => String): Array[Long] = {
    java.util.Arrays.sort(ids)
    var k = 1
    while (k < ids.length) { require(ids(k) != ids(k - 1), repeated(ids(k))); k += 1 }
    ids
  }

  /** Every endpoint ID of the edges, ascending, and every edge unioned over its indices there. */
  private def unionAll(src: Array[Long], dst: Array[Long]): (Array[Long], UnionFind) = {
    val ids = sortedDistinct(Array.concat(src, dst))
    def dense(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    val uf = new UnionFind(ids.length)
    var k = 0
    while (k < src.length) { uf.union(dense(src(k)), dense(dst(k))); k += 1 }
    (ids, uf)
  }

  /** Every endpoint ID of the edges, ascending, and its component's minimum ID. */
  private def components(src: Array[Long], dst: Array[Long]): (Array[Long], Array[Long]) = {
    val (ids, uf) = unionAll(src, dst)
    // IDs ascend, so the first member seen of each component is its minimum.
    val minOf = Array.fill(ids.length)(-1)
    val minima = Array.tabulate(ids.length) { i =>
      val root = uf.find(i)
      if (minOf(root) < 0) minOf(root) = i
      ids(minOf(root))
    }
    (ids, minima)
  }
}
