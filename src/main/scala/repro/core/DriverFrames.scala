package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType

/** DataFrames over rows built on the driver.
  *
  * `createDataFrame` or `toDF` on a local collection makes a `LocalRelation`,
  * whose scan parallelizes the rows themselves: every task that scans the
  * frame, or a cache of it, carries its slice of the rows, serialized by the
  * driver and deserialized by the task. Here the rows are broadcast once and
  * each task carries only a range of indices. The ranges are cut at the same
  * boundaries as the local scan's slices, so each partition holds the same
  * rows in the same order. The broadcast is cleaned up with the frame's RDD
  * once neither is reachable.
  */
private[repro] object DriverFrames {

  /** A DataFrame of the rows `row(0)`, ..., `row(n - 1)` with `schema`, in
    * `k = min(n, defaultParallelism)` partitions (one when `n` is 0):
    * [[flat]] over the slices `[i·n/k, (i+1)·n/k)`, the cuts `parallelize`
    * makes. `row` is broadcast with what it captures, and primitive arrays
    * serialize many times faster than the same values in `Row`s, so a
    * caller whose columns are numbers should capture arrays and build each
    * `Row` in `row`.
    */
  def apply(spark: SparkSession, n: Int, schema: StructType)(row: Int => Row): DataFrame = {
    val k = math.min(math.max(n, 1), spark.sparkContext.defaultParallelism)
    flat(spark, k, schema)(i => Iterator.range((i.toLong * n / k).toInt, ((i + 1).toLong * n / k).toInt).map(row))
  }

  /** A DataFrame of the rows of `rows(0)`, ..., `rows(n - 1)`, one
    * partition each (one empty partition when `n` is 0). `rows` is
    * broadcast with what it captures, so each task carries only its index
    * and computes its rows from the shared data.
    */
  def flat(spark: SparkSession, n: Int, schema: StructType)(rows: Int => Iterator[Row]): DataFrame = {
    val sc = spark.sparkContext
    val shared = sc.broadcast(rows)
    spark.createDataFrame(sc.parallelize(0 until n, math.max(n, 1)).flatMap(i => shared.value(i)), schema)
  }
}
