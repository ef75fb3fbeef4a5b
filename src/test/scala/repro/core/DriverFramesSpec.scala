package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec

class DriverFramesSpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("i", LongType, nullable = false),
    StructField("s", StringType, nullable = true)))

  private def rows(n: Int): Array[Row] =
    Array.tabulate(n)(i => Row(i.toLong, if (i % 3 == 0) null else s"value $i"))

  private def frame(rs: Array[Row]) = DriverFrames(spark, rs.length, schema)(rs(_))

  test("returns the rows in order, in min(n, defaultParallelism) partitions") {
    val dp = spark.sparkContext.defaultParallelism
    for (n <- Seq(1, 2, dp + 3, 1000)) {
      val df = frame(rows(n))
      assert(df.schema == schema)
      assert(df.rdd.getNumPartitions == math.min(n, dp), s"n=$n")
      assert(df.collect().toSeq == rows(n).toSeq, s"n=$n")
    }
  }

  test("each partition holds the rows a local collection's scan puts there") {
    val local = spark.createDataFrame(rows(1001).toSeq.asJava, schema)
    val df = frame(rows(1001))
    assert(df.rdd.glom().collect().map(_.toSeq).toSeq == local.rdd.glom().collect().map(_.toSeq).toSeq)
  }

  test("no rows give an empty frame with the schema in one partition") {
    val df = frame(Array.empty[Row])
    assert(df.schema == schema)
    assert(df.count() == 0)
    assert(df.rdd.getNumPartitions == 1)
  }

  test("no task carries the rows (20,000 rows)") {
    val bytes = partitionBytes(frame(rows(20000)))
    assert(bytes.max < 16 * 1024, s"partition sizes ${bytes.mkString(", ")} bytes")
  }

  test("flat puts the rows of rows(i) in partition i, one empty partition when n is 0") {
    val all = rows(10)
    val groups = Seq(0 until 3, 3 until 3, 3 until 10)
    val df = DriverFrames.flat(spark, groups.size, schema)(i => groups(i).iterator.map(all(_)))
    assert(df.schema == schema)
    assert(df.rdd.glom().collect().map(_.toSeq).toSeq == groups.map(_.map(all(_))))
    val empty = DriverFrames.flat(spark, 0, schema)(_ => Iterator.empty)
    assert(empty.count() == 0 && empty.rdd.getNumPartitions == 1)
  }
}
